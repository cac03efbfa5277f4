//! One-shot reproduction certificate: programmatically checks every claim
//! the paper makes in its evaluation and prints a PASS/FAIL checklist.
//!
//! Usage: `paper_report [--trials <k>]` (default 20000; raise for tighter
//! empirical tolerances).

#![forbid(unsafe_code)]

use arbitree_analysis::stats::summarize;
use arbitree_analysis::{crossover, figures, metrics, Configuration};
use arbitree_bench::arg_value;
use arbitree_core::builder::{balanced, complete_binary, mostly_write};
use arbitree_core::{
    algorithm1_read_availability_limit, algorithm1_write_availability_limit, ArbitraryProtocol,
    ArbitraryTree, TreeMetrics,
};
use arbitree_sim::{
    empirical_availability, empirical_load, run_simulation, FailureSchedule, SimConfig, SimDuration,
};

struct Checklist {
    passed: u32,
    failed: u32,
}

impl Checklist {
    fn check(&mut self, claim: &str, ok: bool) {
        if ok {
            self.passed += 1;
            println!("  PASS  {claim}");
        } else {
            self.failed += 1;
            println!("  FAIL  {claim}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trials = arg_value(&args, "--trials").unwrap_or(20_000.0) as u32;
    let mut c = Checklist {
        passed: 0,
        failed: 0,
    };

    println!("== Table 1 / §3.4 running example (tree 1-3-5, p = 0.7) ==");
    let tree = ArbitraryTree::parse("1-3-5").expect("valid");
    let m = TreeMetrics::new(&tree);
    c.check("m(R) = 15, m(W) = 2", {
        arbitree_core::read_quorum_count(&tree) == Some(15)
            && arbitree_core::write_quorum_count(&tree) == 2
    });
    c.check("RD_cost = 2, WR_cost = 4 (min 3, max 5)", {
        m.read_cost().avg == 2.0
            && m.write_cost().avg == 4.0
            && m.write_cost().min == 3.0
            && m.write_cost().max == 5.0
    });
    c.check(
        "RDavail(0.7) ~ 0.97, WRavail(0.7) ~ 0.45",
        (m.read_availability(0.7) - 0.97).abs() < 5e-3
            && (m.write_availability(0.7) - 0.45).abs() < 5e-3,
    );
    c.check(
        "L_RD = 1/3, L_WR = 1/2; E[L_RD] ~ 0.35, E[L_WR] ~ 0.775",
        (m.read_load() - 1.0 / 3.0).abs() < 1e-12
            && (m.write_load() - 0.5).abs() < 1e-12
            && (m.expected_read_load(0.7) - 0.35).abs() < 5e-3
            && (m.expected_write_load(0.7) - 0.775).abs() < 5e-3,
    );

    println!("== Algorithm 1 (§3.3) ==");
    let ok = (65..=400).step_by(7).all(|n| {
        let t = ArbitraryTree::from_spec(&balanced(n).expect("valid")).expect("valid");
        let mm = TreeMetrics::new(&t);
        let k = (n as f64).sqrt().round();
        (mm.write_load() - 1.0 / k).abs() < 1e-9 && mm.read_load() == 0.25
    });
    c.check("write load 1/sqrt(n) and read load 1/4 for all n > 64", ok);
    c.check(
        "availability limits ~1 for p > 0.8",
        algorithm1_read_availability_limit(0.85) > 0.98
            && algorithm1_write_availability_limit(0.85) > 0.97,
    );

    println!("== §3.3 lower bound for the binary structure of [2] ==");
    let ok = (2..=10).all(|h| {
        let t = ArbitraryTree::from_spec(&complete_binary(h).expect("valid")).expect("valid");
        let n = t.replica_count() as f64;
        let mm = TreeMetrics::new(&t);
        mm.write_load() < 2.0 / ((n + 1.0).log2() + 1.0)
    });
    c.check("1/log2(n+1) < 2/(log2(n+1)+1) for every height", ok);

    println!("== Figure 2 shapes (communication costs) ==");
    let f2 = figures::figure2(300);
    c.check(
        "MOSTLY-READ costs 1/n; MOSTLY-WRITE write cost <= 2.5",
        f2.iter()
            .filter(|p| p.config == "MOSTLY-READ")
            .all(|p| p.read_cost == 1.0 && p.write_cost == p.n as f64)
            && f2
                .iter()
                .filter(|p| p.config == "MOSTLY-WRITE")
                .all(|p| p.write_cost <= 2.5),
    );
    c.check(
        "BINARY has the highest costs of the first four at n = 127",
        {
            let b = figures::point(Configuration::Binary, 127, 0.7);
            b.read_cost > figures::point(Configuration::Unmodified, 127, 0.7).read_cost
                && b.read_cost > figures::point(Configuration::Arbitrary, 127, 0.7).read_cost
                && b.read_cost > figures::point(Configuration::Hqc, 127, 0.7).read_cost
        },
    );
    c.check(
        "UNMODIFIED write cost crosses HQC's in the low hundreds",
        matches!(
            crossover(Configuration::Unmodified, Configuration::Hqc, metrics::write_cost, 3..600, 0.7),
            Some(n) if n < 600
        ),
    );

    println!("== Figure 3 shapes (read loads) ==");
    let f3 = figures::figure3(300, 0.7);
    c.check(
        "UNMODIFIED read load 1; ARBITRARY 1/4 beyond n = 32; MOSTLY-WRITE 1/2",
        f3.iter()
            .filter(|p| p.config == "UNMODIFIED")
            .all(|p| p.read_load == 1.0)
            && f3
                .iter()
                .filter(|p| p.config == "ARBITRARY" && p.n > 32)
                .all(|p| p.read_load == 0.25)
            && f3
                .iter()
                .filter(|p| p.config == "MOSTLY-WRITE")
                .all(|p| p.read_load == 0.5),
    );
    c.check(
        "HQC read load n^-0.37 is least of the first four at n = 243",
        {
            let hqc = figures::point(Configuration::Hqc, 243, 0.7);
            hqc.read_load < figures::point(Configuration::Binary, 243, 0.7).read_load
                && hqc.read_load < figures::point(Configuration::Arbitrary, 243, 0.7).read_load
                && hqc.read_load < figures::point(Configuration::Unmodified, 243, 0.7).read_load
        },
    );

    println!("== Figure 4 shapes (write loads) ==");
    c.check(
        "ARBITRARY has the least write load of the first four at n = 127",
        {
            let a = figures::point(Configuration::Arbitrary, 127, 0.7);
            a.write_load < figures::point(Configuration::Binary, 127, 0.7).write_load
                && a.write_load < figures::point(Configuration::Unmodified, 127, 0.7).write_load
                && a.write_load < figures::point(Configuration::Hqc, 127, 0.7).write_load
        },
    );
    c.check(
        "MOSTLY-WRITE write load = 2/(n-1) for odd n",
        [9usize, 45, 101].iter().all(|&n| {
            let t = ArbitraryTree::from_spec(&mostly_write(n).expect("valid")).expect("valid");
            (TreeMetrics::new(&t).write_load() - 2.0 / (n as f64 - 1.0)).abs() < 1e-12
        }),
    );

    println!("== Empirical cross-validation ({trials} trials) ==");
    let proto = ArbitraryProtocol::parse("1-3-5").expect("valid");
    let (er, ew) = empirical_availability(&proto, 0.7, trials, 1);
    c.check(
        "sampled availability matches closed forms within 0.01",
        (er - m.read_availability(0.7)).abs() < 0.01
            && (ew - m.write_availability(0.7)).abs() < 0.01,
    );
    let (lr, lw) = empirical_load(&proto, trials, 2);
    c.check(
        "sampled loads match closed forms within 0.01",
        (lr - 1.0 / 3.0).abs() < 0.01 && (lw - 0.5).abs() < 0.01,
    );

    println!("== Dynamic simulation (5 seeds, churn) ==");
    let mut read_costs = Vec::new();
    let mut consistent = true;
    for seed in 0..5 {
        let config = SimConfig {
            seed,
            duration: SimDuration::from_millis(200),
            ..SimConfig::default()
        };
        let schedule = FailureSchedule::random(
            8,
            config.duration,
            SimDuration::from_millis(60),
            SimDuration::from_millis(15),
            seed + 40,
        );
        let proto = ArbitraryProtocol::parse("1-3-5").expect("valid");
        let report = run_simulation(config, proto, &schedule);
        consistent &= report.consistent;
        if let Some(rc) = report.metrics.empirical_read_cost() {
            read_costs.push(rc);
        }
    }
    c.check("one-copy consistency holds in every seeded run", consistent);
    let rc = summarize(&read_costs);
    c.check(
        &format!("measured read cost {rc} equals RD_cost = 2"),
        (rc.mean - 2.0).abs() < 1e-9,
    );

    println!();
    println!("{} claims passed, {} failed", c.passed, c.failed);
    if c.failed > 0 {
        std::process::exit(1);
    }
}
