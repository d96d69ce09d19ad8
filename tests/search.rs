//! Integration tests of the parallel search internals as seen through the
//! public API: wall-clock budget cuts that land *during* the improve loop's
//! saturation fan-out, and the `SearchStats`/`PhaseFinished` observability
//! contract.

use chassis::{Budget, Config, Phase, Progress, SearchControl, Session};
use fpcore::parse_fpcore;
use std::sync::Mutex;
use std::time::Duration;
use targets::builtin;

/// A cancellation-prone benchmark whose search escalates ground-truth
/// precision and meaningfully improves accuracy.
fn cancellation() -> fpcore::FPCore {
    parse_fpcore("(FPCore (x) :pre (and (> x 1) (< x 1e14)) (- (sqrt (+ x 1)) (sqrt x)))").unwrap()
}

#[test]
fn wall_clock_budget_exhausts_mid_saturation() {
    // Arrange for the budget deadline to pass while the improve loop is
    // between picking candidates and running their saturation fan-out: the
    // observer stalls on the first `ImproveIteration` event until the
    // wall-clock budget is spent. The saturation workers then see an expired
    // deadline, cut early, and the loop must report `BudgetExhausted` for the
    // improve phase while still returning a frontier containing the initial
    // program.
    let core = cancellation();
    let target = builtin::by_name("c99").unwrap();
    let session = Session::new(Config::fast());
    let prepared = session.prepare(&core).unwrap();

    let budget = Duration::from_millis(60);
    let exhausted: Mutex<Vec<Phase>> = Mutex::new(Vec::new());
    let observer = |event: &Progress| match event {
        Progress::ImproveIteration { iteration: 0, .. } => {
            // Sleep past the deadline so the cut happens inside the loop, not
            // before it starts (iteration 0 was already underway).
            std::thread::sleep(budget + Duration::from_millis(60));
        }
        Progress::BudgetExhausted { phase, .. } => {
            exhausted.lock().unwrap().push(*phase);
        }
        _ => {}
    };
    let ctl = SearchControl::new()
        .with_progress(&observer)
        .with_budget(Budget::wall_clock(budget));
    let result = prepared.compile_with(&target, &ctl).unwrap();

    let exhausted = exhausted.into_inner().unwrap();
    assert!(
        exhausted.contains(&Phase::Improve),
        "the improve loop must report the mid-iteration cut, got {exhausted:?}"
    );
    assert!(
        !result.implementations.is_empty(),
        "a cut search must keep a valid frontier"
    );
    assert!(
        result
            .implementations
            .iter()
            .any(|imp| imp.rendered == result.initial.rendered),
        "the initial program survives a mid-saturation cut"
    );
}

#[test]
fn budget_exhausted_before_first_admission_keeps_the_initial_program() {
    // A budget spent before the improve loop admits anything must not
    // produce an empty frontier: the initial program is admitted
    // unconditionally, and `most_accurate`/`cheapest` fall back to it.
    let core = cancellation();
    let target = builtin::by_name("c99").unwrap();
    let session = Session::new(Config::fast());
    let prepared = session.prepare(&core).unwrap();

    for budget in [Budget::wall_clock(Duration::ZERO), Budget::iterations(0)] {
        let ctl = SearchControl::new().with_budget(budget);
        let result = prepared.compile_with(&target, &ctl).unwrap();
        assert!(
            !result.implementations.is_empty(),
            "{budget:?}: the frontier must keep the initial program"
        );
        assert!(
            result
                .implementations
                .iter()
                .any(|imp| imp.rendered == result.initial.rendered),
            "{budget:?}: the initial program must survive"
        );
        let most_accurate = result.most_accurate();
        let cheapest = result.cheapest();
        assert!(
            most_accurate.error_bits <= result.initial.error_bits,
            "{budget:?}: most_accurate can only improve on the initial"
        );
        assert!(
            cheapest.cost <= result.initial.cost,
            "{budget:?}: cheapest can only improve on the initial"
        );
    }
}

#[test]
fn installed_empty_fault_plan_is_invisible() {
    // The fault layer's contract: with no fault armed it costs nothing and
    // changes nothing. An *installed but empty* plan turns on the slow path
    // in every `fault::point`, so comparing it against a plain run checks
    // the strongest form of the claim — bit-identical frontiers.
    let core = cancellation();
    let target = builtin::by_name("c99").unwrap();

    let plain = Session::new(Config::fast())
        .compile(&core, &target)
        .unwrap();
    let under_plan = {
        let _armed = fault::install(fault::FaultPlan::new());
        Session::new(Config::fast())
            .compile(&core, &target)
            .unwrap()
    };

    assert_eq!(
        plain.implementations.len(),
        under_plan.implementations.len(),
        "frontier sizes differ under an empty fault plan"
    );
    for (a, b) in plain
        .implementations
        .iter()
        .zip(&under_plan.implementations)
    {
        assert_eq!(a.rendered, b.rendered, "programs differ");
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "costs differ");
        assert_eq!(
            a.error_bits.to_bits(),
            b.error_bits.to_bits(),
            "errors differ"
        );
    }
    assert_eq!(plain.initial.rendered, under_plan.initial.rendered);
}

#[test]
fn phase_durations_are_observable_and_match_the_stats() {
    let core = cancellation();
    let target = builtin::by_name("c99").unwrap();
    let session = Session::new(Config::fast());
    let prepared = session.prepare(&core).unwrap();

    let events: Mutex<Vec<Progress>> = Mutex::new(Vec::new());
    let observer = |event: &Progress| events.lock().unwrap().push(*event);
    let ctl = SearchControl::new().with_progress(&observer);
    let result = prepared.compile_with(&target, &ctl).unwrap();
    let events = events.into_inner().unwrap();

    // Every started phase finishes, in order, and the reported duration is
    // exactly what lands in `SearchStats`.
    let finished: Vec<(Phase, Duration)> = events
        .iter()
        .filter_map(|e| match e {
            Progress::PhaseFinished { phase, duration } => Some((*phase, *duration)),
            _ => None,
        })
        .collect();
    let phases: Vec<Phase> = finished.iter().map(|(p, _)| *p).collect();
    assert_eq!(
        phases,
        vec![
            Phase::Lowering,
            Phase::Improve,
            Phase::Regimes,
            Phase::FinalEvaluation
        ]
    );
    let stats = &result.stats;
    for (phase, duration) in &finished {
        let in_stats = match phase {
            Phase::Prepare => unreachable!("prepare happens before compile_with"),
            Phase::Lowering => stats.lowering,
            Phase::Improve => stats.improve,
            Phase::Regimes => stats.regimes,
            Phase::FinalEvaluation => stats.final_evaluation,
        };
        assert_eq!(in_stats, *duration, "{phase:?} duration mismatch");
    }
    // The improve loop did real work and accounted for it.
    assert!(stats.improve > Duration::ZERO);
    assert!(stats.saturation > Duration::ZERO, "saturation was timed");
    assert!(stats.candidates_scored >= 1);
    assert!(
        stats.truths.misses > 0,
        "a fresh compile must miss the ground-truth cache at least once"
    );
    assert!(
        stats.truths.node_evals >= stats.truths.misses as u64,
        "every cache miss evaluates interval nodes"
    );
}
