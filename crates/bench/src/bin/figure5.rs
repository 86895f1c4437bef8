//! Regenerates paper Figure 5 / §6.2: two issuer candidates identical but
//! for validity — which one does each client put in the path?
//!
//! `cargo run --release --bin figure5`

use ccc_core::builder::BuildContext;
use ccc_core::clients::client_profiles;
use ccc_core::report::TextTable;
use ccc_core::IssuanceChecker;
use ccc_testgen::scenarios::ScenarioSet;

fn main() {
    let set = ScenarioSet::new(5);
    let (scenario, newer, older) = set.figure5();
    println!("{} — {}", scenario.name, scenario.description);
    let show = |c: &ccc_x509::Certificate| {
        let v = c.validity();
        format!("{} .. {}", v.not_before, v.not_after)
    };
    println!("candidate A (newer): {}", show(&newer));
    println!("candidate B (older): {}\n", show(&older));

    let checker = IssuanceChecker::new();
    let ctx = BuildContext {
        store: &set.store,
        aia: Some(&set.aia),
        cache: &[],
        now: set.now,
        checker: &checker,
    };
    let mut table = TextTable::new("Candidate selected", &["Client", "Selected", "Verdict"]);
    for (kind, engine) in client_profiles() {
        let outcome = engine.process(&scenario.served, &ctx);
        let selected = if outcome.path.contains(&newer) {
            "A (newer)"
        } else if outcome.path.contains(&older) {
            "B (older)"
        } else {
            "-"
        };
        table.row(&[
            kind.name().to_string(),
            selected.to_string(),
            if outcome.accepted() {
                "accepted".into()
            } else {
                format!("{:?}", outcome.verdict)
            },
        ]);
    }
    println!("{}", table.render());
    println!(
        "paper §6.2: the most recently issued candidate should be preferred (it\n\
         reflects the CA's current configuration) — VP2 clients do this; VP1\n\
         clients take the first valid candidate in served order."
    );
}
