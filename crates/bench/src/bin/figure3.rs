//! Regenerates paper Figure 3 / finding I-2: the assiste6.serpro.gov.br
//! long-list case that exceeds GnuTLS's 16-certificate input limit.
//!
//! `cargo run --release --bin figure3`

use ccc_core::builder::BuildContext;
use ccc_core::clients::client_profiles;
use ccc_core::report::TextTable;
use ccc_core::IssuanceChecker;
use ccc_testgen::scenarios::ScenarioSet;

fn main() {
    let set = ScenarioSet::new(5);
    let scenario = set.figure3();
    println!("{} — {}", scenario.name, scenario.description);
    println!(
        "served list length: {} certificates\n",
        scenario.served.len()
    );

    let checker = IssuanceChecker::new();
    let ctx = BuildContext {
        store: &set.store,
        aia: Some(&set.aia),
        cache: &[],
        now: set.now,
        checker: &checker,
    };
    let mut table = TextTable::new("Client verdicts", &["Client", "Verdict"]);
    for (kind, engine) in client_profiles() {
        let outcome = engine.process(&scenario.served, &ctx);
        table.row(&[
            kind.name().to_string(),
            match &outcome.verdict {
                Ok(()) => "accepted".into(),
                Err(e) => format!("REJECTED: {e}"),
            },
        ]);
    }
    println!("{}", table.render());
    println!(
        "paper I-2: GnuTLS limits the ORIGINAL LIST length to 16 (not the constructed\n\
         path), so junk-padded lists fail in GnuTLS alone — 10 real chains did."
    );
}
