//! Every engine shape finds the same problems as the interpreter oracle
//! (ROADMAP aim 3): compiled `Analyzer`, online with chunked flushes,
//! sharded at 1/2/3 shards, durable and sharded-durable killed and
//! recovered, and over TCP into a sharded server. One generator
//! (`testkit::Scenario`) and one assertion
//! (`testkit::assert_all_shapes_agree`) state the contract; the cases
//! below are the random sweep plus the fixed cases a mutation of the
//! engine must not slip past.
//!
//! The proptest RNG is keyed on (test name, case index), so the sweep is
//! fixed-seed by construction; `PROPTEST_CASES=64 cargo test -q --test
//! shapes` widens it without changing the first cases.

use kojak::cosy::AnalysisReport;
use kojak::online::RunKey;
use proptest::prelude::*;
use testkit::{assert_all_shapes_agree, Program, Scenario, Suite};

proptest! {
    #![proptest_config(testkit::cases(8))]

    #[test]
    fn random_scenarios_agree(scenario in Scenario::strategy()) {
        assert_all_shapes_agree(&scenario);
    }
}

/// Several versions interleaved, so the shards hold different runs and
/// their reports are compared by fingerprint; a checkpoint before the
/// kill, so recovery must load the snapshot; a refused run and an event
/// for a run that never started, counted alike everywhere.
#[test]
fn interleaved_versions_with_a_checkpoint_and_refused_events() {
    assert_all_shapes_agree(&Scenario {
        versions: 3,
        interleave: Some(7),
        chunk: 33,
        cut: 600,
        checkpoint_at: Some(300),
        rejected_events: true,
        ..Scenario::new(17)
    });
}

/// A run that declares zero processors is refused at the door with a
/// typed error in every shape, and across a kill. Admitted, it made
/// `IoContention`'s `Growth = t.NoPe / MinPeSum.Run.NoPe` divide by zero,
/// and every later flush failed on the re-queued delta.
#[test]
fn a_run_without_processors_is_refused_and_flushing_goes_on() {
    assert_all_shapes_agree(&Scenario {
        suite: Suite::WithIoContention,
        program: Program::SpectralIo,
        pes: vec![2, 64],
        rejected_events: true,
        ..Scenario::new(11)
    });
}

/// The largest run first: every smaller run that arrives changes the
/// reference configuration, and a late correction of the reference run's
/// timings must reach every other run of the version.
#[test]
fn decreasing_pe_order_with_late_corrections() {
    assert_all_shapes_agree(&Scenario {
        pes: vec![16, 4, 1],
        chunk: 13,
        checkpoint_at: Some(500),
        late_corrections: true,
        ..Scenario::new(3)
    });
}

/// `IoContention` reads the reference run's *typed* I/O timings from
/// every run of the version, a dependency no standard property has. Its
/// read summary says so: a correction of that timing, sent once every run
/// was reported, moves the property in the runs it was not addressed to,
/// and only the reference run — whose basis total is corrected too — is
/// re-evaluated in full (rule 4), not the whole version.
#[test]
fn a_late_correction_of_the_reference_run_moves_a_custom_property() {
    let corrected = Scenario {
        suite: Suite::WithIoContention,
        program: Program::SpectralIo,
        pes: vec![2, 16, 64],
        late_corrections: true,
        ..Scenario::new(11)
    };
    let after = assert_all_shapes_agree(&corrected);
    let before = assert_all_shapes_agree(&Scenario {
        late_corrections: false,
        ..corrected
    });

    let [.., (_, ahead), (changed, stats)] = &after.flushes[..] else {
        panic!("a stream of several flushes");
    };
    assert_eq!(changed, &[RunKey(0), RunKey(1), RunKey(2)]);
    let full = stats.incremental.full_reevaluations - ahead.incremental.full_reevaluations;
    assert_eq!(full, 1, "the reference run alone in full");

    let io_contention = |report: &AnalysisReport| -> Vec<(String, u64)> {
        let held = report
            .entries
            .iter()
            .filter(|e| e.property == "IoContention");
        held.map(|e| (e.context.label.to_string(), e.severity.to_bits()))
            .collect()
    };
    for run in [RunKey(1), RunKey(2)] {
        let (was, is) = (
            io_contention(&before.reports[&run]),
            io_contention(&after.reports[&run]),
        );
        assert!(!was.is_empty() && !is.is_empty(), "{run}: {was:?} {is:?}");
        assert_ne!(was, is, "{run}: moved by a correction addressed to run 0");
    }
}
