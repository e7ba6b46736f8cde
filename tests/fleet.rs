//! Fleet serving: the determinism contract (a seeded 1k-tenant,
//! 100k-request cell is byte-identical at 1 vs 4 threads), the QoS
//! conservation ledger (per-class and per-tenant histograms merge
//! exactly to the fleet aggregate), and report JSON round trips.

use dramless::{run_fleet_on, ArrivalProcess, BalancerKind, FleetReport, FleetSpec, QosClass};
use util::fingerprint::fnv1a;
use util::json::{FromJson, ToJson};
use util::pool::Pool;
use util::telemetry::LatencyHistogram;
use workloads::Kernel;

mod goldens;

/// The acceptance-scale cell: ≥1k tenants, ≥100k requests, bursty
/// arrivals, admission control, and the PRAM erase wall armed.
fn acceptance_spec() -> FleetSpec {
    FleetSpec {
        name: Some("acceptance".into()),
        accelerators: 8,
        slots_per_accel: 2,
        balancer: BalancerKind::QosAware,
        tenants: 1024,
        // Bursts overrun the fleet's service capacity (~16 slots at
        // ~100us/request ≈ 160k req/s) so admission control engages;
        // the calm-period rate keeps the cell stable on average.
        arrivals: ArrivalProcess::Bursty {
            base_per_s: 10_000.0,
            burst_per_s: 400_000.0,
            mean_burst_ms: 20.0,
            mean_calm_ms: 80.0,
        },
        kernels: vec![Kernel::Trisolv, Kernel::Durbin, Kernel::Jaco1d],
        seed: 2026,
        requests: 100_000,
        admit_ms: 20.0,
        erase_every_kb: 512,
        ..FleetSpec::example()
    }
}

#[test]
fn acceptance_cell_is_byte_identical_at_one_vs_four_threads() {
    // The headline contract: the serving loop is one serial pass that
    // tallies as it serves, and the one parallel phase (kernel pricing)
    // returns in kernel order, so thread count must never leak into the
    // report — down to the last byte of JSON.
    let spec = acceptance_spec();
    let serial = run_fleet_on(&Pool::new(1), &spec).expect("1-thread run serves");
    let threaded = run_fleet_on(&Pool::new(4), &spec).expect("4-thread run serves");
    assert_eq!(
        serial.to_json(),
        threaded.to_json(),
        "thread count leaked into the fleet report"
    );

    // The cell really is at acceptance scale and exercised every class.
    assert_eq!(threaded.tenants, 1024);
    assert!(threaded.offered >= 100_000, "offered {}", threaded.offered);
    threaded.check_conservation().expect("conservation ledger");
    for class in QosClass::ALL {
        let c = threaded.class(class);
        assert!(c.completed > 0, "{} served nothing", class.key());
        let (p50, p99, p999) = (
            c.latency.quantile_ns(0.50),
            c.latency.quantile_ns(0.99),
            c.latency.quantile_ns(0.999),
        );
        assert!(p50 > 0, "{}: empty p50", class.key());
        assert!(
            p50 <= p99 && p99 <= p999,
            "{}: quantiles unordered",
            class.key()
        );
    }
    // Admission control engaged under burst pressure, and only against
    // the classes it is allowed to touch.
    assert!(threaded.rejected > 0, "qos-aware never rejected");
    assert_eq!(
        threaded.rejected,
        threaded.class(QosClass::BestEffort).rejected
    );
    assert_eq!(
        threaded.degraded,
        threaded.class(QosClass::Throughput).degraded
    );
}

#[test]
fn per_tenant_histograms_merge_exactly_to_the_aggregate() {
    // check_conservation() asserts this too; here the merge is done by
    // hand so a ledger bug and a merge bug cannot mask each other.
    let spec = FleetSpec {
        tenants: 128,
        requests: 5_000,
        ..acceptance_spec()
    };
    let report = run_fleet_on(&Pool::new(2), &spec).expect("cell serves");
    let mut from_tenants = LatencyHistogram::default();
    let mut offered = 0;
    for t in &report.per_tenant {
        from_tenants.merge(&t.latency);
        offered += t.offered;
    }
    assert_eq!(from_tenants, report.aggregate);
    assert_eq!(offered, report.offered);

    let mut from_classes = LatencyHistogram::default();
    for (_, c) in &report.classes {
        from_classes.merge(&c.latency);
    }
    assert_eq!(from_classes, report.aggregate);
    assert_eq!(report.aggregate.count(), report.completed);
}

#[test]
fn every_balancer_serves_the_same_offered_traffic() {
    // The arrival process and tenant draws are balancer-independent:
    // switching the dispatch policy re-routes requests but never
    // re-shapes the offered load.
    let base = FleetSpec {
        tenants: 64,
        requests: 3_000,
        ..acceptance_spec()
    };
    let pool = Pool::new(2);
    let reports: Vec<FleetReport> = BalancerKind::ALL
        .into_iter()
        .map(|balancer| {
            run_fleet_on(
                &pool,
                &FleetSpec {
                    balancer,
                    ..base.clone()
                },
            )
            .expect("cell serves")
        })
        .collect();
    for r in &reports {
        assert_eq!(r.offered, reports[0].offered);
        r.check_conservation().expect("conservation ledger");
        // Offered per tenant is a pure function of the seed.
        let offered: Vec<u64> = r.per_tenant.iter().map(|t| t.offered).collect();
        let first: Vec<u64> = reports[0].per_tenant.iter().map(|t| t.offered).collect();
        assert_eq!(offered, first);
    }
    // Only the admission-controlled balancer may reject or degrade.
    for r in &reports[..2] {
        assert_eq!(r.rejected, 0, "{} rejected", r.balancer.label());
        assert_eq!(r.degraded, 0, "{} degraded", r.balancer.label());
    }
}

#[test]
fn fleet_reports_round_trip_through_json() {
    let spec = FleetSpec {
        tenants: 32,
        requests: 1_000,
        ..acceptance_spec()
    };
    let report = run_fleet_on(&Pool::new(2), &spec).expect("cell serves");
    let parsed = FleetReport::from_json_str(&report.to_json_pretty()).expect("report parses");
    assert_eq!(
        parsed.to_json_pretty(),
        report.to_json_pretty(),
        "round trip is byte-stable"
    );
    parsed
        .check_conservation()
        .expect("parsed ledger still balances");
}

#[test]
fn fleet_reports_match_their_golden_digests() {
    // FNV-1a digests of `to_json_string()` (the manifest's `fleet/*`
    // rows), so a change to how the fleet serves, tallies or attributes
    // cannot move one report byte unseen.
    // The last cell is bound by its horizon and spreads a few hundred
    // requests over 100k tenants, so the tenant ids it tallies are sparse.
    let example = |balancer| FleetSpec {
        balancer,
        ..FleetSpec::example()
    };
    let cells = [
        ("acceptance", acceptance_spec()),
        ("example-round-robin", example(BalancerKind::RoundRobin)),
        ("example-least-loaded", example(BalancerKind::LeastLoaded)),
        ("example-qos-aware", example(BalancerKind::QosAware)),
        (
            "sparse-tenants",
            FleetSpec {
                name: Some("sparse-tenants".into()),
                tenants: 100_000,
                requests: 0,
                duration_ms: 500,
                ..FleetSpec::example()
            },
        ),
    ];
    let pool = Pool::new(2);
    let rows: Vec<(String, String)> = cells
        .into_iter()
        .map(|(what, spec)| {
            let report = run_fleet_on(&pool, &spec).expect("cell serves");
            let got = fnv1a(report.to_json_string().as_bytes());
            (format!("fleet/{what}"), goldens::hex(got))
        })
        .collect();
    goldens::check("fleet/", &rows);
}
