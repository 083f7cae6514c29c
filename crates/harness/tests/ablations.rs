//! The ablation sweep is pinned against the committed stores: 49
//! distinct unit keys, the variant keys absent from the main store, and
//! the canonical units present in both with identical results. The
//! calibration candidates add 1,666 units; the shipped `--mid` and
//! converged eval candidates' 378 are the main store's.

use snug_harness::{
    ablation_jobs, ablation_units, ContentKey, ResultStore, UnitJob, ABLATIONS_DIR,
};
use std::collections::BTreeSet;
use std::path::Path;

fn open(dir: &str) -> ResultStore {
    ResultStore::open(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(dir),
    )
    .unwrap()
}

#[test]
fn the_ablation_job_list_is_pinned_against_the_main_store() {
    let combos = ablation_jobs();
    assert_eq!(combos.len(), 7, "3 C1 + 4 C4 combos");
    let units: Vec<&UnitJob> = combos.iter().flat_map(|c| c.units()).collect();
    let keys: BTreeSet<ContentKey> = units.iter().map(|u| u.key).collect();
    assert_eq!(
        (units.len(), keys.len()),
        (49, 49),
        "pairwise-distinct keys"
    );

    let main = open("results");
    let (mut canonical, mut variants) = (0, 0);
    for c in &combos {
        for unit in [&c.baseline, &c.snug[0]] {
            assert!(main.get_unit(&unit.key).is_some(), "{}", unit.label());
            canonical += 1;
        }
        for unit in &c.snug[1..] {
            assert!(main.get_unit(&unit.key).is_none(), "{}", unit.label());
            variants += 1;
        }
    }
    assert_eq!((canonical, variants), (14, 35));
}

/// Every unit the document reads — each ablation and each calibration
/// candidate's — is in the ablation store, which holds nothing else;
/// every one the main store also holds has the same result there.
#[test]
fn the_ablation_store_holds_the_sweep_and_its_canonical_units_match_the_main_store() {
    let main = open("results");
    let ablations = open(ABLATIONS_DIR);
    let units = ablation_units();
    assert_eq!(units.len(), 49 + 1666, "ablations + calibration");
    assert_eq!(ablations.unit_count(), units.len(), "no stray entries");
    let bits = |ipcs: &[f64]| ipcs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut shared = 0;
    for unit in &units {
        let ours = ablations.get_unit(&unit.key);
        assert!(ours.is_some(), "{}", unit.label());
        if let Some(theirs) = main.get_unit(&unit.key) {
            let ours = ours.unwrap();
            assert_eq!(bits(&ours.ipcs), bits(&theirs.ipcs), "{}", unit.label());
            assert_eq!(ours, theirs, "{}", unit.label());
            shared += 1;
        }
    }
    assert_eq!(shared, 189 + 189, "the --mid and converged eval sweeps");
    for c in ablation_jobs() {
        for unit in [&c.baseline, &c.snug[0]] {
            assert!(main.get_unit(&unit.key).is_some(), "{}", unit.label());
        }
    }
}

/// Progress lines and unit failures name a unit by its label, so no
/// two units of one `snug ablations` run may share one: each SNUG edit
/// names itself, while the canonical units keep the labels (and so the
/// span labels) they carry in every other sweep.
#[test]
fn no_two_ablation_units_share_a_label() {
    let units = ablation_units();
    let labels: BTreeSet<String> = units.iter().map(UnitJob::label).collect();
    assert_eq!(labels.len(), units.len());
    let combos = ablation_jobs();
    for c in &combos {
        let combo = c.combo.label();
        assert_eq!(c.baseline.label(), format!("{combo} [l2p]"));
        assert_eq!(c.snug[0].label(), format!("{combo} [snug]"));
        assert_eq!(c.snug[5].label(), format!("{combo} [snug: k=6, p=16]"));
    }
}
