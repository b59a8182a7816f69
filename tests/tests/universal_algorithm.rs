//! End-to-end validation of the synthesized universal algorithm (Theorem
//! 5.5) across adversary families.

use adversary::{GeneralMA, MessageAdversary};
use consensus_core::{
    config::ExpandConfig,
    solvability::{SolvabilityChecker, Verdict},
    space::PrefixSpace,
    universal::UniversalAlgorithm,
};
use dyngraph::{generators, Digraph, GraphSeq, Pid};
use ptgraph::Value;
use simulator::checker::{CheckConfig, CheckReport, Violation};
use simulator::{checker, engine, Algorithm};

fn solvable_cert(ma: GeneralMA, depth: usize) -> consensus_core::solvability::SolvableCert {
    match SolvabilityChecker::new(ma).max_depth(depth).max_runs(4_000_000).check() {
        Verdict::Solvable(cert) => cert,
        other => panic!("expected solvable: {other:?}"),
    }
}

/// The checker's own verification already runs exhaustively; this test
/// re-verifies at a *deeper* horizon than synthesis: decisions must persist
/// and stay consistent on longer runs.
#[test]
fn decisions_persist_beyond_synthesis_depth() {
    let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
    let cert = solvable_cert(ma.clone(), 3);
    let cfg = checker::CheckConfig::at_depth(cert.depth + 3).max_runs(4_000_000);
    let report = checker::check(&cert.algorithm, &ma, &[0, 1], &cfg).unwrap();
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert_eq!(report.undecided_runs, 0);
}

/// Ternary input domain: the universal construction is not binary-specific.
#[test]
fn ternary_universal_algorithm() {
    let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
    let space =
        PrefixSpace::expand(&ma, &[0, 1, 2], 2, &ExpandConfig::with_budget(4_000_000)).unwrap();
    assert!(space.separation().is_separated());
    let alg = UniversalAlgorithm::synthesize(&space).unwrap();
    let report = checker::check(
        &alg,
        &ma,
        &[0, 1, 2],
        &checker::CheckConfig::at_depth(2).max_runs(4_000_000),
    )
    .unwrap();
    assert!(report.passed(), "violations: {:?}", report.violations);
    // Validity specifically for value 2.
    let exec = engine::run(&alg, &[2, 2], &GraphSeq::parse2("-> <-").unwrap());
    assert_eq!(exec.consensus_value(), Some(2));
}

/// The universal algorithm works on runs the synthesis never saw, as long
/// as their prefixes are admissible: random deep sequences.
#[test]
fn random_deep_runs_agree() {
    use rand::SeedableRng;
    let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
    let cert = solvable_cert(ma.clone(), 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    for _ in 0..50 {
        let seq = adversary::sample::random_prefix(&ma, &mut rng, 10).unwrap();
        let inputs = adversary::sample::random_inputs(&mut rng, 2, &[0, 1]);
        let exec = engine::run(&cert.algorithm, &inputs, &seq);
        assert!(exec.all_decided());
        assert!(exec.agreement_holds());
        assert!(!exec.any_revoked());
        if inputs[0] == inputs[1] {
            assert_eq!(exec.consensus_value(), Some(inputs[0]));
        }
    }
}

/// Universal algorithm for the n = 3 star adversary handles all 3-process
/// sequences, and its decisions match the "round-1 center" rule.
#[test]
fn star_universal_matches_center_rule() {
    let ma = GeneralMA::oblivious(generators::all_out_stars(3));
    let cert = solvable_cert(ma.clone(), 3);
    let stars = generators::all_out_stars(3);
    for (center, g1) in stars.iter().enumerate() {
        for g2 in &stars {
            let seq = GraphSeq::from_graphs(vec![g1.clone(), g2.clone()]);
            let inputs = vec![4, 5, 6];
            let exec = engine::run(&cert.algorithm, &inputs, &seq);
            // Values 4–6 are outside the synthesis domain {0,1}; use binary
            // inputs for the actual check below instead.
            let _ = exec;
            for x in [[0u32, 1, 0], [1, 0, 1], [0, 0, 1]] {
                let exec = engine::run(&cert.algorithm, &x, &seq);
                assert_eq!(exec.consensus_value(), Some(x[center]), "center {center}, x {x:?}");
            }
        }
    }
}

/// Compact eventually-swap adversary: universal algorithm decides once the
/// forced exchange has happened.
#[test]
fn eventually_swap_decisions_after_exchange() {
    let ma = GeneralMA::eventually_graph(
        generators::lossy_link_full(),
        Digraph::parse2("<->").unwrap(),
        Some(2),
    );
    let cert = solvable_cert(ma.clone(), 4);
    // Sequence with the swap in round 2.
    let seq = GraphSeq::parse2("-> <-> <- ->").unwrap();
    assert!(ma.admits_prefix(&seq));
    let exec = engine::run(&cert.algorithm, &[0, 1], &seq);
    assert!(exec.all_decided());
    assert!(exec.agreement_holds());
}

/// Synthesis is deterministic: two syntheses from equal spaces produce
/// algorithms with identical decision behavior.
#[test]
fn synthesis_deterministic() {
    let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
    let s1 = PrefixSpace::expand(&ma, &[0, 1], 2, &ExpandConfig::default()).unwrap();
    let s2 = PrefixSpace::expand(&ma, &[0, 1], 2, &ExpandConfig::default()).unwrap();
    let a1 = UniversalAlgorithm::synthesize(&s1).unwrap();
    let a2 = UniversalAlgorithm::synthesize(&s2).unwrap();
    assert_eq!(a1.table_size(), a2.table_size());
    for word in ["-> <-", "<- ->", "-> ->", "<- <-"] {
        let seq = GraphSeq::parse2(word).unwrap();
        for x in [[0u32, 0], [0, 1], [1, 0], [1, 1]] {
            let e1 = engine::run(&a1, &x, &seq);
            let e2 = engine::run(&a2, &x, &seq);
            for p in 0..2 {
                assert_eq!(e1.decision_of(p), e2.decision_of(p));
            }
        }
    }
}

/// The per-run oracle for `checker::check`: `engine::run` on every
/// `(inputs, sequence)` pair, inputs outer, then the Definition 5.1 checks
/// of each run in order. The budget is not checked.
fn per_run_check<A: Algorithm>(
    alg: &A,
    ma: &dyn MessageAdversary,
    values: &[Value],
    cfg: &CheckConfig,
) -> CheckReport {
    let seqs = adversary::enumerate::admissible_sequences(ma, cfg.depth);
    let mut report = CheckReport::default();
    for x in ptgraph::all_inputs(ma.n(), values) {
        for seq in &seqs {
            let exec = engine::run(alg, &x, seq);
            report.runs_checked += 1;
            if exec.any_revoked() {
                report
                    .violations
                    .push(Violation::Irrevocability { inputs: x.clone(), seq: seq.clone() });
            }
            if !exec.agreement_holds() {
                let mut values: Vec<Value> =
                    (0..exec.n()).filter_map(|p| exec.value_of(p)).collect();
                values.sort_unstable();
                values.dedup();
                report.violations.push(Violation::Agreement {
                    inputs: x.clone(),
                    seq: seq.clone(),
                    values,
                });
            }
            if x.iter().all(|&v| v == x[0]) {
                if let Some(decided) =
                    (0..exec.n()).filter_map(|p| exec.value_of(p)).find(|&d| d != x[0])
                {
                    report.violations.push(Violation::Validity {
                        expected: x[0],
                        decided,
                        seq: seq.clone(),
                    });
                }
            }
            if cfg.strong_validity {
                if let Some(decided) =
                    (0..exec.n()).filter_map(|p| exec.value_of(p)).find(|d| !x.contains(d))
                {
                    report.violations.push(Violation::StrongValidity {
                        inputs: x.clone(),
                        decided,
                        seq: seq.clone(),
                    });
                }
            }
            if exec.all_decided() {
                for p in 0..exec.n() {
                    let (round, _) = exec.decision_of(p).expect("all decided");
                    report.max_decision_round = report.max_decision_round.max(round);
                }
            } else {
                report.undecided_runs += 1;
                if cfg.require_termination {
                    report
                        .violations
                        .push(Violation::Termination { inputs: x.clone(), seq: seq.clone() });
                }
            }
        }
    }
    report
}

/// A test-only algorithm that breaks the consensus properties in ways that
/// depend on the sequence. At round 1 each process decides its input plus
/// the number of messages it received. At round 2, a process that receives
/// a message withdraws its decision (process 0) or switches back to its
/// input (the others). Runs that share round 1 thus differ in revocations.
struct Revoker;

#[derive(Debug, Clone)]
struct RevokerState {
    x: Value,
    round: usize,
    decided: Option<Value>,
}

impl Algorithm for Revoker {
    type State = RevokerState;

    fn init(&self, _p: Pid, x: Value) -> RevokerState {
        RevokerState { x, round: 0, decided: None }
    }

    fn step(&self, p: Pid, s: &RevokerState, received: &[(Pid, RevokerState)]) -> RevokerState {
        let round = s.round + 1;
        let decided = match round {
            1 => Some(s.x + received.len() as Value),
            2 if !received.is_empty() => (p != 0).then_some(s.x),
            _ => s.decided,
        };
        RevokerState { x: s.x, round, decided }
    }

    fn decision(&self, _p: Pid, s: &RevokerState) -> Option<Value> {
        s.decided
    }
}

fn violation_kind(v: &Violation) -> &'static str {
    match v {
        Violation::Agreement { .. } => "agreement",
        Violation::Validity { .. } => "validity",
        Violation::Irrevocability { .. } => "irrevocability",
        Violation::StrongValidity { .. } => "strong-validity",
        Violation::Termination { .. } => "termination",
    }
}

/// Assert `checker::check` equals the per-run oracle in all four report
/// fields, violation order included; note the violation kinds seen.
fn assert_matches_oracle<A: Algorithm>(
    walked_alg: &A,
    oracle_alg: &A,
    ma: &dyn MessageAdversary,
    values: &[Value],
    cfg: &CheckConfig,
    at: &str,
    kinds: &mut std::collections::BTreeSet<&'static str>,
) {
    let walked =
        checker::check(walked_alg, ma, values, cfg).unwrap_or_else(|e| panic!("{at}: {e}"));
    assert_eq!(walked, per_run_check(oracle_alg, ma, values, cfg), "{at}");
    kinds.extend(walked.violations.iter().map(violation_kind));
}

/// The checks that walk a space's own sequences equal `checker::check(alg,
/// ma, …)`, which enumerates them, in all four report fields: FloodMin's
/// walk under both validities, and for the weak and the strong synthesis
/// both the plain walk and `UniversalAlgorithm::verify`, whose first call
/// per flavor walks and fills the space's memo and whose second, from a
/// fresh synthesis, must return that memo. The two flavors' memos must be
/// distinct: on these spaces their reports coincide, so only identity
/// tells a memo keyed without the flavor apart. Returns whether both
/// flavors synthesized.
fn assert_space_checks_match(
    space: &PrefixSpace,
    ma: &dyn MessageAdversary,
    values: &[Value],
    at: &str,
) -> bool {
    let (n, depth) = (space.n(), space.depth());
    for strong in [false, true] {
        let cfg = CheckConfig::at_depth(depth).strong_validity(strong);
        let flood = simulator::algorithms::FloodMin::new(depth);
        let walked = checker::check_sequences(&flood, n, values, space.sequences(), &cfg).unwrap();
        let enumerated = checker::check(&flood, ma, values, &cfg).unwrap();
        assert_eq!(walked, enumerated, "{at} floodmin strong={strong}");
    }
    let mut memos: Vec<&CheckReport> = Vec::new();
    for strong in [false, true] {
        let synthesize = match strong {
            false => UniversalAlgorithm::synthesize,
            true => UniversalAlgorithm::synthesize_strong,
        };
        let Some(alg) = synthesize(space) else {
            continue;
        };
        let at = format!("{at} universal strong={strong}");
        let cfg = CheckConfig::at_depth(depth).strong_validity(strong);
        let enumerated = checker::check(&synthesize(space).unwrap(), ma, values, &cfg).unwrap();
        let walked = checker::check_sequences(&alg, n, values, space.sequences(), &cfg).unwrap();
        assert_eq!(walked, enumerated, "{at} walk");
        let memo = alg.verify(space);
        assert_eq!(*memo, enumerated, "{at} memo filled");
        let again = synthesize(space).unwrap();
        assert!(std::ptr::eq(again.verify(space), memo), "{at}: the memo was not reused");
        memos.push(memo);
    }
    if let [weak, strong] = memos[..] {
        assert!(!std::ptr::eq(weak, strong), "{at}: weak and strong share one memo");
    }
    memos.len() == 2
}

/// `checker::check` executes each admissible prefix once per input
/// assignment; its report must equal per-run execution's over the catalog
/// at depths 1..=5, for the reference algorithms, the revoking one and the
/// synthesized universal algorithm (also one round past its horizon, where
/// it interns new views in the same order), with strong validity and
/// required termination on and off; and over {0, 1, 2} at depths 1..=3 for
/// the weak and strong syntheses. On every one of these spaces, the checks
/// that walk the space's own sequences must equal `checker::check`
/// ([`assert_space_checks_match`]).
#[test]
fn prefix_walk_matches_per_run_oracle_on_catalog() {
    use simulator::algorithms::{AdaptiveFlood, DirectionRule, FloodMin};
    let mut kinds = std::collections::BTreeSet::new();
    let mut both_flavors = 0;
    let modes = [(false, false), (true, true)];
    for entry in adversary::catalog::entries() {
        let ma = entry.build();
        for depth in 1..=5 {
            let space = PrefixSpace::expand(&*ma, &[0, 1], depth, &ExpandConfig::default())
                .unwrap_or_else(|e| panic!("{}@{depth}: {e}", entry.name));
            let at = format!("{}@{depth}", entry.name);
            both_flavors += usize::from(assert_space_checks_match(&space, &*ma, &[0, 1], &at));
            for (strong, term) in modes {
                let cfg =
                    CheckConfig::at_depth(depth).strong_validity(strong).require_termination(term);
                let at = format!("{}@{depth} strong={strong} term={term}", entry.name);
                let ma = &*ma;
                let k = &mut kinds;
                for flood in [FloodMin::new(1), FloodMin::new(depth)] {
                    assert_matches_oracle(&flood, &flood, ma, &[0, 1], &cfg, &at, k);
                }
                assert_matches_oracle(&DirectionRule, &DirectionRule, ma, &[0, 1], &cfg, &at, k);
                let adaptive = AdaptiveFlood::new(1);
                assert_matches_oracle(&adaptive, &adaptive, ma, &[0, 1], &cfg, &at, k);
                assert_matches_oracle(&Revoker, &Revoker, ma, &[0, 1], &cfg, &at, k);
                if !space.separation().is_separated() {
                    continue;
                }
                // Fresh instances per side: each run interns into its own table.
                let (walked, oracle) = (
                    UniversalAlgorithm::synthesize(&space).unwrap(),
                    UniversalAlgorithm::synthesize(&space).unwrap(),
                );
                for d in [depth, depth + 1] {
                    let cfg = CheckConfig { depth: d, ..cfg };
                    assert_matches_oracle(&walked, &oracle, ma, &[0, 1], &cfg, &at, k);
                }
                assert!(walked.with_view_table(|a| oracle.with_view_table(|b| a == b)), "{at}");
            }
        }
        for depth in 1..=3 {
            let space = PrefixSpace::expand(&*ma, &[0, 1, 2], depth, &ExpandConfig::default())
                .unwrap_or_else(|e| panic!("{}@{depth}: {e}", entry.name));
            let at = format!("{}@{depth} over 0..3", entry.name);
            both_flavors += usize::from(assert_space_checks_match(&space, &*ma, &[0, 1, 2], &at));
            let syntheses: [fn(&PrefixSpace) -> Option<UniversalAlgorithm>; 2] =
                [UniversalAlgorithm::synthesize, UniversalAlgorithm::synthesize_strong];
            for synthesize in syntheses {
                let (Some(walked), Some(oracle)) = (synthesize(&space), synthesize(&space)) else {
                    continue;
                };
                for (strong, term) in modes {
                    let cfg = CheckConfig::at_depth(depth)
                        .strong_validity(strong)
                        .require_termination(term);
                    let at = format!("{}@{depth} over 0..3 strong={strong}", entry.name);
                    assert_matches_oracle(
                        &walked,
                        &oracle,
                        &*ma,
                        &[0, 1, 2],
                        &cfg,
                        &at,
                        &mut kinds,
                    );
                }
            }
        }
    }
    let all = ["agreement", "irrevocability", "strong-validity", "termination", "validity"];
    assert_eq!(kinds.into_iter().collect::<Vec<_>>(), all);
    assert!(both_flavors >= 30, "only {both_flavors} spaces verified both flavors");
}
