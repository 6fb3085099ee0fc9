//! The detector's options bundle: the paper's analysis modes (§4.2.1)
//! and their extensions, as explorer options plus machine parameters.
//! Analyses run through [`crate::AnalysisSession`], configured with a
//! [`DetectorOptions`] via [`crate::SessionBuilder::options`] or
//! [`crate::AnalysisSession::with_options`].

use crate::explorer::ExplorerOptions;
use crate::strategy::StrategyKind;
use sct_core::Params;

/// The detector's options: explorer options plus machine parameters.
///
/// # Examples
///
/// ```
/// use pitchfork::{AnalysisSession, DetectorOptions};
/// use sct_core::examples::fig1;
///
/// let (program, config) = fig1();
/// let mut session = AnalysisSession::with_options(DetectorOptions::default());
/// let report = session.analyze(&program, &config);
/// assert!(report.has_violations());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct DetectorOptions {
    /// Worst-case schedule exploration options.
    pub explorer: ExplorerOptions,
    /// Machine parameters (addressing, stack, RSB policy).
    pub params: Params,
}

impl DetectorOptions {
    /// The paper's Spectre v1/v1.1 configuration (§4.2.1): no
    /// forwarding-hazard exploration, deep speculation bound.
    pub fn v1_mode(spec_bound: usize) -> Self {
        DetectorOptions {
            explorer: ExplorerOptions {
                spec_bound,
                forwarding_hazards: false,
                ..Default::default()
            },
            params: Params::paper(),
        }
    }

    /// The paper's Spectre v4 configuration (§4.2.1): forwarding-hazard
    /// exploration with a reduced bound to keep analysis tractable.
    pub fn v4_mode(spec_bound: usize) -> Self {
        DetectorOptions {
            explorer: ExplorerOptions {
                spec_bound,
                forwarding_hazards: true,
                ..Default::default()
            },
            params: Params::paper(),
        }
    }

    /// **Extension**: aliasing-predictor exploration (§3.5) on top of
    /// v4 mode — finds the paper's Figure 2 hypothetical attack, which
    /// the original Pitchfork could not explore (§4).
    pub fn alias_mode(spec_bound: usize) -> Self {
        DetectorOptions {
            explorer: ExplorerOptions {
                spec_bound,
                forwarding_hazards: true,
                alias_prediction: true,
                ..Default::default()
            },
            params: Params::paper(),
        }
    }

    /// **Extension**: Spectre v2 exploration — mistrained indirect-jump
    /// targets (Appendix A's attacker-influenced branch-target
    /// predictor), which the original Pitchfork does not model (§4).
    pub fn v2_mode(spec_bound: usize) -> Self {
        DetectorOptions {
            explorer: ExplorerOptions {
                spec_bound,
                jmpi_mistraining: true,
                ..Default::default()
            },
            params: Params::paper(),
        }
    }

    /// The same options with state deduplication toggled — duplicate
    /// states are pruned by default; turning it off reproduces the
    /// duplicate-blind exploration the equivalence tests and the
    /// throughput bench compare against.
    pub fn dedup(mut self, dedup_states: bool) -> Self {
        self.explorer.dedup_states = dedup_states;
        self
    }

    /// The same options with a different frontier order.
    pub fn strategy(mut self, strategy: StrategyKind) -> Self {
        self.explorer.strategy = strategy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AnalysisSession;
    use sct_core::examples::fig1;
    use sct_core::reg::names::RA;

    #[test]
    fn default_detector_flags_fig1() {
        let (p, cfg) = fig1();
        let report = AnalysisSession::with_options(DetectorOptions::default()).analyze(&p, &cfg);
        assert!(report.has_violations());
    }

    #[test]
    fn symbolic_index_also_flags_fig1() {
        // Even from an in-bounds concrete index, symbolizing `ra` lets
        // the mispredicted out-of-bounds path carry a symbolic index.
        let (p, mut cfg) = fig1();
        cfg.regs.write(RA, sct_core::Val::public(1));
        let mut session = AnalysisSession::with_options(DetectorOptions::default());
        let report = session.analyze_symbolic(&p, &cfg, &[RA]);
        assert!(report.has_violations(), "{report}");
    }

    #[test]
    fn v1_and_v4_modes_differ_in_forwarding() {
        assert!(!DetectorOptions::v1_mode(250).explorer.forwarding_hazards);
        assert!(DetectorOptions::v4_mode(20).explorer.forwarding_hazards);
    }
}
