//! Regenerates paper Table 4: SSL certificate deployment characteristics
//! across HTTP servers, by probing the deployment models directly.
//!
//! `cargo run --release --bin table4`

use ccc_asn1::Time;
use ccc_core::report::{check, TextTable};
use ccc_crypto::Drbg;
use ccc_netsim::admin::{assemble, AdminBehavior};
use ccc_netsim::ca::CaProfile;
use ccc_netsim::httpserver::{FileLayout, HttpServerKind};
use ccc_rootstore::CaUniverse;

fn main() {
    let universe = CaUniverse::default_with_seed(4);
    let profile = &CaProfile::all()[1]; // a manual CA with a ca-bundle
    let bundle = profile.issue(
        &universe,
        0,
        "probe.sim",
        Time::from_ymd(2024, 1, 1).expect("literal date is valid"),
        Time::from_ymd(2025, 1, 1).expect("literal date is valid"),
        &mut Drbg::from_u64(1),
        false,
    );

    let servers = [
        HttpServerKind::ApacheOld,
        HttpServerKind::ApacheNew,
        HttpServerKind::Nginx,
        HttpServerKind::AzureAppGateway,
        HttpServerKind::Iis,
        HttpServerKind::AwsElb,
    ];
    let mut table = TextTable::new(
        "Table 4 — Deployment characteristics across HTTP servers (probed)",
        &[
            "Characteristic",
            "Apache<2.4.8",
            "Apache>=2.4.8",
            "Nginx",
            "Azure AGW",
            "IIS",
            "AWS ELB",
        ],
    );

    let layout_label = |s: HttpServerKind| match s.file_layout() {
        FileLayout::SeparateLeafAndBundle => "SF1",
        FileLayout::FullChain => "SF2",
        FileLayout::Pfx => "SF3",
    };
    let mut row = vec!["Automatic Certificate Management".to_string()];
    row.extend(
        servers
            .iter()
            .map(|s| check(s.supports_automation()).to_string()),
    );
    table.row(&row);
    let mut row = vec!["Supported Certificate Fields".to_string()];
    row.extend(servers.iter().map(|s| layout_label(*s).to_string()));
    table.row(&row);

    // Probe: key mismatch (serve someone else's chain).
    let mut row = vec!["Private Key / Leaf Matching Check".to_string()];
    for server in servers {
        let mut files = assemble(&bundle, &AdminBehavior::FollowGuide, server);
        files.key_matches_first_cert = false;
        row.push(check(server.deploy(&files).is_err()).to_string());
    }
    table.row(&row);

    // Probe: duplicate leaf.
    let mut row = vec!["Duplicate Leaf Certificate Check".to_string()];
    for server in servers {
        let files = assemble(&bundle, &AdminBehavior::LeafInChainFile, server);
        row.push(check(server.deploy(&files).is_err()).to_string());
    }
    table.row(&row);

    // Probe: duplicate intermediates.
    let mut row = vec!["Duplicate Intermediate/Root Check".to_string()];
    for server in servers {
        let files = assemble(&bundle, &AdminBehavior::DuplicateBundle(2), server);
        row.push(check(server.deploy(&files).is_err()).to_string());
    }
    table.row(&row);

    println!("{}", table.render());
    println!(
        "SF1 = CertificateFile.pem + Ca-bundle.pem + key; SF2 = FullChain.pem + key; \
         SF3 = PFX container\npaper Table 4: same pattern (all servers check the key; only \
         Azure/IIS reject duplicate leaves; none reject duplicate intermediates)."
    );
}
