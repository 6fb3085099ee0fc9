//! The textual corpus: `.sasm` sources shipped with the crate, as both
//! CLI fixtures and end-to-end assembler tests.
//!
//! Beyond the original five sources, the corpus carries every remaining
//! Kocher-style variant of [`crate::kocher`] and the paper's figure
//! gadgets in text form, so the `pitchfork` CLI and
//! [`pitchfork::AnalysisSession::run_batch`] exercise the same programs
//! the builder suites do. Figure gadgets that need an extension mode (the Figure 2
//! aliasing predictor, the Figure 11 Spectre v2 jump) are expected SAFE
//! here: the corpus harness runs the paper's v1/v4 modes only.

use crate::harness::Expectation;
use sct_asm::{assemble, Assembled};

/// A corpus entry: a named assembly source with expected verdicts.
pub struct CorpusEntry {
    /// File stem (e.g. `spectre_v1`).
    pub name: &'static str,
    /// The assembly source text.
    pub source: &'static str,
    /// Expected verdicts.
    pub expect: Expectation,
    /// Speculation bound sufficient to expose the case's behaviour.
    pub bound: usize,
}

/// A case that leaks even sequentially (`kocher_04`'s insufficient
/// masking keeps the original Kocher flavour).
const SEQ_LEAK: Expectation = Expectation {
    sequentially_clean: false,
    v1_violation: true,
    v4_violation: true,
};

/// All shipped `.sasm` sources with their expectations.
pub fn entries() -> Vec<CorpusEntry> {
    fn entry(
        name: &'static str,
        source: &'static str,
        expect: Expectation,
        bound: usize,
    ) -> CorpusEntry {
        CorpusEntry {
            name,
            source,
            expect,
            bound,
        }
    }
    vec![
        entry(
            "spectre_v1",
            include_str!("../corpus/spectre_v1.sasm"),
            Expectation::V1,
            16,
        ),
        entry(
            "spectre_v1_fenced",
            include_str!("../corpus/spectre_v1_fenced.sasm"),
            Expectation::SAFE,
            16,
        ),
        entry(
            "spectre_v1p1",
            include_str!("../corpus/spectre_v1p1.sasm"),
            Expectation::V1,
            16,
        ),
        entry(
            "spectre_v4",
            include_str!("../corpus/spectre_v4.sasm"),
            Expectation::V4_ONLY,
            16,
        ),
        entry(
            "ct_select",
            include_str!("../corpus/ct_select.sasm"),
            Expectation::SAFE,
            16,
        ),
        // The remaining Kocher variants (kocher_01/kocher_06 ship above
        // as spectre_v1 / spectre_v1_fenced).
        entry(
            "kocher_02",
            include_str!("../corpus/kocher_02.sasm"),
            Expectation::V1,
            16,
        ),
        entry(
            "kocher_03",
            include_str!("../corpus/kocher_03.sasm"),
            Expectation::V1,
            16,
        ),
        entry(
            "kocher_04",
            include_str!("../corpus/kocher_04.sasm"),
            SEQ_LEAK,
            16,
        ),
        entry(
            "kocher_05",
            include_str!("../corpus/kocher_05.sasm"),
            Expectation::V1,
            16,
        ),
        entry(
            "kocher_07",
            include_str!("../corpus/kocher_07.sasm"),
            Expectation::V1,
            16,
        ),
        entry(
            "kocher_08",
            include_str!("../corpus/kocher_08.sasm"),
            Expectation::V1,
            16,
        ),
        entry(
            "kocher_09",
            include_str!("../corpus/kocher_09.sasm"),
            Expectation::V1,
            16,
        ),
        entry(
            "kocher_10",
            include_str!("../corpus/kocher_10.sasm"),
            Expectation::SAFE,
            16,
        ),
        entry(
            "kocher_11",
            include_str!("../corpus/kocher_11.sasm"),
            Expectation::V1,
            16,
        ),
        entry(
            "kocher_12",
            include_str!("../corpus/kocher_12.sasm"),
            Expectation::SAFE,
            16,
        ),
        entry(
            "kocher_13",
            include_str!("../corpus/kocher_13.sasm"),
            Expectation::V1,
            16,
        ),
        entry(
            "kocher_14",
            include_str!("../corpus/kocher_14.sasm"),
            Expectation::V1,
            16,
        ),
        entry(
            "kocher_15",
            include_str!("../corpus/kocher_15.sasm"),
            Expectation::V1,
            20,
        ),
        // The paper's figure gadgets.
        entry(
            "fig2_alias",
            include_str!("../corpus/fig2_alias.sasm"),
            Expectation::SAFE,
            20,
        ),
        entry(
            "fig6_v1p1_store",
            include_str!("../corpus/fig6_v1p1_store.sasm"),
            Expectation::V1,
            20,
        ),
        entry(
            "fig8_fence",
            include_str!("../corpus/fig8_fence.sasm"),
            Expectation::SAFE,
            20,
        ),
        entry(
            "fig11_spectre_v2",
            include_str!("../corpus/fig11_spectre_v2.sasm"),
            Expectation::SAFE,
            20,
        ),
        entry(
            "fig13_retpoline",
            include_str!("../corpus/fig13_retpoline.sasm"),
            Expectation::SAFE,
            20,
        ),
    ]
}

/// Assemble a corpus entry.
///
/// # Panics
///
/// Panics if the shipped source does not assemble (a packaging bug).
pub fn assemble_entry(entry: &CorpusEntry) -> Assembled {
    assemble(entry.source)
        .unwrap_or_else(|e| panic!("corpus entry `{}` does not assemble: {e}", entry.name))
}

/// The whole textual corpus as [`crate::harness::LitmusCase`]s, for
/// batch runs over exactly what the CLI sees.
pub fn cases() -> Vec<crate::harness::LitmusCase> {
    entries()
        .into_iter()
        .map(|entry| {
            let asm = assemble_entry(&entry);
            crate::harness::LitmusCase {
                name: entry.name,
                description: "textual corpus entry",
                program: asm.program,
                config: asm.config,
                expect: entry.expect,
                bound: entry.bound,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_case, LitmusCase};

    #[test]
    fn corpus_assembles_and_matches_expectations() {
        for entry in entries() {
            let asm = assemble_entry(&entry);
            let case = LitmusCase {
                name: entry.name,
                description: "corpus entry",
                program: asm.program,
                config: asm.config,
                expect: entry.expect,
                bound: entry.bound,
            };
            let got = run_case(&case);
            assert_eq!(
                got.sequentially_clean, entry.expect.sequentially_clean,
                "{}: sequential",
                entry.name
            );
            assert_eq!(got.v1_violation, entry.expect.v1_violation, "{}: v1", entry.name);
            assert_eq!(got.v4_violation, entry.expect.v4_violation, "{}: v4", entry.name);
        }
    }

    #[test]
    fn corpus_round_trips_through_the_disassembler() {
        for entry in entries() {
            let asm = assemble_entry(&entry);
            let text = sct_asm::disassemble_with(&asm.program, Some(&asm.config));
            let again = sct_asm::assemble(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert_eq!(again.program, asm.program, "{}", entry.name);
            assert_eq!(again.config, asm.config, "{}", entry.name);
        }
    }

    #[test]
    fn corpus_covers_the_kocher_suite_and_figure_gadgets() {
        let names: Vec<&str> = entries().iter().map(|e| e.name).collect();
        for k in [
            "kocher_02",
            "kocher_05",
            "kocher_12",
            "kocher_15",
            "fig2_alias",
            "fig13_retpoline",
        ] {
            assert!(names.contains(&k), "corpus is missing {k}");
        }
        assert!(names.len() >= 23);
    }
}
