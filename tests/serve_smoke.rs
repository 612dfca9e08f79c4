//! Smoke check for the real (wall-clock) VM fleet: drains a tiny
//! multi-tenant traffic stream through the work-stealing pool at 1
//! and 8 workers and asserts the canonical per-job results are
//! identical — VM reuse plus stealing must not change any outcome.

use javart::serve::pool::{jobs_of, run_fleet, FleetConfig};
use javart::serve::{Traffic, TrafficConfig};
use javart::workloads::Size;

#[test]
fn fleet_results_are_schedule_independent_and_deduplicated() {
    let traffic = Traffic::generate(&TrafficConfig {
        seed: 0x5EED_0042,
        requests: 64,
        tenants: 8,
        fuzz_programs: 3,
        size: Size::Tiny,
    });
    let jobs = jobs_of(&traffic);

    let one = run_fleet(&traffic.programs, &jobs, &FleetConfig::default());
    let eight = run_fleet(
        &traffic.programs,
        &jobs,
        &FleetConfig {
            workers: 8,
            ..FleetConfig::default()
        },
    );
    assert_eq!(
        one.results, eight.results,
        "fleet results must be schedule-independent"
    );

    let ok = one.results.iter().filter(|r| r.outcome.is_ok()).count();
    assert!(ok > 0, "smoke traffic must complete some jobs");
    assert!(
        one.cache.shared_dedup_hits > 0,
        "single resident worker must dedup repeated contents: {:?}",
        one.cache
    );
}
