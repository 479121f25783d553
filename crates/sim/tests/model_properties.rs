//! Property tests for the controller's scheduling policies and the
//! weight-update stage.

use proptest::prelude::*;
use sparsetrain_sim::sched::{compare_policies, lower_bound, schedule, Policy};
use sparsetrain_sim::update::{update_cost, UpdateRule};
use sparsetrain_sim::ArchConfig;

proptest! {
    // ---- scheduling -------------------------------------------------

    #[test]
    fn all_policies_conserve_work(
        tasks in prop::collection::vec(0u64..500, 0..200),
        pes in 1usize..64,
    ) {
        let total: u64 = tasks.iter().sum();
        for r in compare_policies(&tasks, pes) {
            prop_assert_eq!(r.loads.iter().sum::<u64>(), total);
            prop_assert!(r.makespan >= lower_bound(&tasks, pes) || total == 0);
        }
    }

    #[test]
    fn least_loaded_respects_grahams_bound(
        tasks in prop::collection::vec(1u64..1000, 1..300),
        pes in 1usize..64,
    ) {
        let r = schedule(Policy::LeastLoaded, &tasks, pes);
        let lb = lower_bound(&tasks, pes);
        // List scheduling is a (2 - 1/m)-approximation of the optimum,
        // and the lower bound is ≤ the optimum.
        prop_assert!(r.makespan <= 2 * lb);
        prop_assert!(r.makespan >= lb);
    }

    #[test]
    fn utilization_is_a_fraction(
        tasks in prop::collection::vec(0u64..100, 0..100),
        pes in 1usize..32,
    ) {
        for r in compare_policies(&tasks, pes) {
            let u = r.utilization();
            prop_assert!((0.0..=1.0 + 1e-12).contains(&u));
        }
    }

    // ---- weight update -----------------------------------------------

    #[test]
    fn update_cost_is_monotone(params in 0u64..10_000_000) {
        let cfg = ArchConfig::paper_default();
        for rule in UpdateRule::ALL {
            let a = update_cost(params, rule, &cfg);
            let b = update_cost(params + 1024, rule, &cfg);
            prop_assert!(b.cycles >= a.cycles);
            prop_assert!(b.sram_words > a.sram_words || params + 1024 == 0);
        }
    }
}
