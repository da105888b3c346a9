//! One module per paper table/figure. The `experiments` binary lists
//! the ids that run them; README's "Who measures what" says what each
//! one establishes.

pub mod ablation;
pub mod admission_parity;
pub mod chaos;
pub mod churn;
pub mod elastic;
pub mod fig10;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod hop_bench;
pub mod migration;
pub mod obs_overhead;
pub mod robust;
pub mod table2;
pub mod theorem1;

use std::sync::Arc;
use vc_algo::nearest::nearest_assignment;
use vc_core::{SystemState, UapProblem};
use vc_cost::CostModel;
use vc_workloads::{prototype_instance, PrototypeConfig};

/// The prototype problem (Sec. V-A) under the paper's default cost model.
pub fn prototype_problem(seed: u64) -> Arc<UapProblem> {
    let instance = prototype_instance(&PrototypeConfig {
        seed,
        ..PrototypeConfig::default()
    });
    Arc::new(UapProblem::new(instance, CostModel::paper_default()))
}

/// Prototype state bootstrapped with the nearest policy.
pub fn prototype_nrst_state(seed: u64) -> SystemState {
    let p = prototype_problem(seed);
    let asg = nearest_assignment(&p);
    SystemState::new(p, asg)
}
