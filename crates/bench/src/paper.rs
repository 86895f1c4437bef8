//! The paper's published figures, each held once.
//!
//! Every "Paper" cell and note the `tables` binary prints comes from
//! here. A figure the paper gives with its denominator is a count plus
//! that denominator, printed by [`count_pct`]: `Figure::Share(838_354,
//! CHAINS)` prints `838,354 (92.5%)`. A figure the paper gives only as a
//! percentage, or with a qualifier, is held as its printed text. The
//! figures per leaf placement, completeness class, incomplete reason,
//! discrepancy cause and root program come from exhaustive `match`es, so
//! a new class fails to compile instead of printing `-`.

use ccc_core::report::{count_pct, group_thousands};
use ccc_core::{Completeness, DiscrepancyCause, IncompleteReason, LeafPlacement};
use ccc_rootstore::RootProgram;

/// One published figure, as a table cell prints it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure {
    /// A count out of a denominator, printed `count (pct%)`.
    Share(usize, usize),
    /// A count the paper prints alone.
    Count(usize),
    /// A count the paper prints as `count (~0%)`.
    NearZero(usize),
    /// A figure the paper gives only as this text.
    Text(&'static str),
    /// The paper gives no figure; printed `-`.
    Unpublished,
}

impl Figure {
    /// The table cell.
    pub fn render(self) -> String {
        match self {
            Figure::Share(count, of) => count_pct(count, of),
            Figure::Count(count) => group_thousands(count),
            Figure::NearZero(count) => format!("{} (~0%)", group_thousands(count)),
            Figure::Text(text) => text.to_string(),
            Figure::Unpublished => "-".to_string(),
        }
    }
}

/// Chains in the paper's scan of the Tranco top 1M.
pub const CHAINS: usize = 906_336;

/// Table 3: leaf certificate deployment, of [`CHAINS`].
pub fn placement(class: LeafPlacement) -> Figure {
    match class {
        LeafPlacement::CorrectlyPlacedMatched => Figure::Share(838_354, CHAINS),
        LeafPlacement::CorrectlyPlacedMismatched => Figure::Share(62_536, CHAINS),
        LeafPlacement::IncorrectlyPlacedMatched => Figure::NearZero(0),
        LeafPlacement::IncorrectlyPlacedMismatched => Figure::NearZero(1),
        LeafPlacement::Other => Figure::Share(5_445, CHAINS),
    }
}

/// Table 5's total: chains with non-compliant issuance order.
pub const ORDER_NONCOMPLIANT: usize = 16_952;
/// Table 5: chains with duplicate certificates.
pub const DUPLICATE_CHAINS: Figure = Figure::Share(5_974, ORDER_NONCOMPLIANT);
/// Table 5: chains with irrelevant certificates.
pub const IRRELEVANT_CHAINS: Figure = Figure::Share(3_032, ORDER_NONCOMPLIANT);
/// Table 5: chains with multiple paths.
pub const MULTIPATH_CHAINS: Figure = Figure::Share(246, ORDER_NONCOMPLIANT);
const REVERSED: usize = 8_566;
/// Table 5: chains with reversed sequences.
pub const REVERSED_CHAINS: Figure = Figure::Share(REVERSED, ORDER_NONCOMPLIANT);
/// §4.2: reversed chains in which every path is reversed, of the
/// reversed chains.
pub const ALL_PATHS_REVERSED: (usize, usize) = (8_370, REVERSED);
/// §4.2: chains with a duplicated leaf.
pub const DUPLICATED_LEAF: usize = 4_730;
/// §4.2: chains with a duplicated intermediate.
pub const DUPLICATED_INTERMEDIATE: usize = 1_354;
/// §4.2: chains with a duplicated root.
pub const DUPLICATED_ROOT: usize = 401;
/// §4.2: the longest served list, in certificates.
pub const LONGEST_LIST: usize = 29;

/// Table 7's incomplete chains.
pub const INCOMPLETE: usize = 12_087;

/// Table 7: chain completeness, of [`CHAINS`].
pub fn completeness(class: Completeness) -> Figure {
    match class {
        Completeness::CompleteWithRoot => Figure::Share(79_144, CHAINS),
        Completeness::CompleteWithoutRoot => Figure::Share(815_105, CHAINS),
        Completeness::Incomplete => Figure::Share(INCOMPLETE, CHAINS),
    }
}

/// §4.3: incomplete chains that recursive AIA completes.
pub const AIA_COMPLETABLE: Figure = Figure::Share(11_419, INCOMPLETE);
/// §4.3: incomplete chains missing exactly one intermediate.
pub const MISSING_SINGLE_INTERMEDIATE: Figure = Figure::Share(8_729, INCOMPLETE);

/// §4.3: incomplete chains that AIA cannot complete, by reason.
pub fn incomplete_reason(reason: IncompleteReason) -> Figure {
    match reason {
        IncompleteReason::NoAiaField => Figure::Count(579),
        IncompleteReason::AiaUriDead => Figure::Count(88),
        IncompleteReason::AiaWrongCertificate => Figure::Count(1),
        IncompleteReason::AiaChainNotTerminating => Figure::Unpublished,
    }
}

/// Table 8: additional incomplete chains in `program`'s store, with and
/// without AIA, over the unified-store-with-AIA baseline.
pub fn additional_incomplete(program: RootProgram) -> (usize, usize) {
    match program {
        RootProgram::Mozilla => (66, 225_608),
        RootProgram::Chrome => (66, 225_608),
        RootProgram::Microsoft => (5, 225_538),
        RootProgram::Apple => (4, 225_360),
    }
}

/// Table 10's shares, which the paper gives only as percentages.
pub const TABLE10_SHAPE: &str = "\
paper Table 10 shape to check: Apache leads duplicates (56.1%, and 63.3% of
duplicate leaves) thanks to its two-file layout; Azure shows ~0 duplicate
leaves (upload check); Nginx leads reversed sequences.";

/// Table 11's per-CA rates, which the paper gives only as percentages.
pub const TABLE11_RATES: &str = "\
paper Table 11 rates: non-compliance — LE 1.2%, Digicert 7.9%, Sectigo 10.7%,
ZeroSSL 2.5%, GoGetSSL 16.7%, TAIWAN-CA 50.4%, cyber_Folks 66.2%, Trustico 65.7%;
reversed sequences dominate the three reversed-bundle resellers; TAIWAN-CA's
non-compliance is mostly incomplete chains (41.9%).";

/// §5.2: non-compliant chains put through the differential test (2.9% of
/// [`CHAINS`]).
pub const NONCOMPLIANT_TESTED: Figure = Figure::Count(26_361);
/// §5.2: non-compliant chains every browser accepts.
pub const ALL_BROWSERS_PASS: Figure = Figure::Text("61.1% (3 browsers)");
/// §5.2: non-compliant chains all four libraries accept.
pub const ALL_LIBRARIES_PASS: Figure = Figure::Text("47.4%");
/// §5.2: non-compliant chains the browsers disagree on.
pub const BROWSER_DISCREPANCIES: Figure = Figure::Text("3,295 chains");
/// §5.2: non-compliant chains the libraries disagree on.
pub const LIBRARY_DISCREPANCIES: Figure = Figure::Text("10,804 chains");

/// §5.2: discrepancies by cause.
pub fn cause(cause: DiscrepancyCause) -> Figure {
    match cause {
        DiscrepancyCause::OrderReorganization => Figure::Count(51),
        DiscrepancyCause::ListLengthLimit => Figure::Count(10),
        DiscrepancyCause::Backtracking => Figure::Count(1),
        DiscrepancyCause::AiaCompletion => Figure::Text("8,553 (libraries) / 1,074 (Firefox)"),
        DiscrepancyCause::Other => Figure::Unpublished,
    }
}

/// §5.2: share of all chains failing in at least one library.
pub const LIBRARY_FAILURES: &str = "40.9%";
/// §5.2: share of all chains failing in at least one browser.
pub const BROWSER_FAILURES: &str = "12.5%";

#[cfg(test)]
mod tests {
    use super::*;

    /// The chains a Table 3 or Table 7 figure counts, out of [`CHAINS`].
    fn chains(figure: Figure) -> usize {
        match figure {
            Figure::Share(count, of) => {
                assert_eq!(of, CHAINS, "{figure:?}");
                count
            }
            Figure::NearZero(count) => count,
            other => panic!("{other:?} counts no chains"),
        }
    }

    #[test]
    fn tables_3_and_7_each_cover_every_scanned_chain() {
        let placed: usize = LeafPlacement::ALL
            .map(|c| chains(placement(c)))
            .iter()
            .sum();
        assert_eq!(placed, CHAINS);
        let classified: usize = Completeness::ALL
            .map(|c| chains(completeness(c)))
            .iter()
            .sum();
        assert_eq!(classified, CHAINS);
    }

    #[test]
    fn figures_render_as_published() {
        let cells = [
            (
                placement(LeafPlacement::CorrectlyPlacedMatched),
                "838,354 (92.5%)",
            ),
            (
                placement(LeafPlacement::IncorrectlyPlacedMismatched),
                "1 (~0%)",
            ),
            (AIA_COMPLETABLE, "11,419 (94.5%)"),
            (incomplete_reason(IncompleteReason::NoAiaField), "579"),
            (cause(DiscrepancyCause::Other), "-"),
        ];
        for (figure, printed) in cells {
            assert_eq!(figure.render(), printed);
        }
    }
}
