//! The shared-arena property of batch analysis, in its own process so
//! no concurrently running test interns nodes during the measurement:
//! a repeated batch is served entirely by the warm arena.

use pitchfork::{AnalysisSession, BatchItem, DetectorOptions};
use sct_core::examples::fig1;

#[test]
fn repeated_batch_interns_nothing_new() {
    let (p, cfg) = fig1();
    let run = |mode: DetectorOptions| {
        AnalysisSession::with_options(mode).run_batch(vec![BatchItem::new(
            "fig1",
            p.clone(),
            cfg.clone(),
        )])
    };
    let first = run(DetectorOptions::v1_mode(12));
    assert!(first.fresh_nodes() > 0, "cold run must populate the arena");
    let again = run(DetectorOptions::v1_mode(12));
    assert_eq!(
        again.fresh_nodes(),
        0,
        "a repeated batch must be fully served by the shared arena"
    );
    assert_eq!(
        first.totals.states, again.totals.states,
        "warm-arena exploration must be identical"
    );
    // A different mode reuses most structure: the condition and address
    // expressions are the same interned nodes.
    let v4 = run(DetectorOptions::v4_mode(12));
    assert!(
        v4.fresh_nodes() < first.fresh_nodes(),
        "v4 exploration of the same program must reuse v1's expressions \
         ({} new vs {} cold)",
        v4.fresh_nodes(),
        first.fresh_nodes()
    );
}
