//! The execution simulator: per-PE timelines for every region.
//!
//! For each region and each processing element the simulator computes the
//! exclusive compute time and the time spent in each of the 25 overhead
//! categories, from the region's [`Workload`] and the [`MachineModel`]:
//!
//! * **compute**: `passes · (serial + parallel/P · skew(pe))`, inflated by
//!   the memory-contention factor. The skew multipliers are normalized to
//!   mean 1 so total parallel work is preserved across PE counts; the
//!   replicated serial part grows linearly in total when summed over PEs.
//! * **synchronization wait**: processors arriving early at a barrier (or a
//!   synchronizing collective) wait for the slowest one:
//!   `wait(pe) = max_q compute(q) − compute(pe)`, charged to the `Barrier`
//!   (or collective) category — this is how load imbalance becomes visible
//!   as synchronization cost, the causal chain behind the paper's
//!   `LoadImbalance` refinement of `SyncCost`.
//! * **messages / collectives / SHMEM / I/O**: latency-bandwidth models;
//!   collectives pay `⌈log₂ P⌉` stages; the filesystem is shared, so I/O
//!   time grows with the PE count (contention).
//! * **instrumentation**: a fixed cost per pass, recorded in the
//!   `Instrumentation` category and included in the region's `Ovhd` — the
//!   "instrumentation overhead" the paper lists among the stored data.

use crate::machine::MachineModel;
use crate::noise;
use crate::program::{raw_skew, CallModel, ProgramModel, RegionNode, Workload};
use perfdata::TimingType;
use rayon::prelude::*;

/// Per-PE simulation result of one call site.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSim {
    /// Callee function name.
    pub callee: String,
    /// Pass count per PE.
    pub counts: Vec<f64>,
    /// Time spent in the callee per PE, in seconds.
    pub times: Vec<f64>,
}

/// Per-PE simulation result of one region (exclusive of children).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSim {
    /// Unique region number used for noise streams.
    pub region_uid: u64,
    /// Exclusive compute seconds per PE.
    pub compute: Vec<f64>,
    /// Overhead seconds per (type, PE); only categories with nonzero time
    /// appear.
    pub overheads: Vec<(TimingType, Vec<f64>)>,
    /// Call-site statistics.
    pub calls: Vec<CallSim>,
}

impl RegionSim {
    /// Summed (over PEs) exclusive compute time.
    pub fn total_compute(&self) -> f64 {
        self.compute.iter().sum()
    }

    /// Summed (over PEs) overhead time.
    pub fn total_overhead(&self) -> f64 {
        self.overheads
            .iter()
            .map(|(_, v)| v.iter().sum::<f64>())
            .sum()
    }

    /// Summed (over PEs) own time: compute + overhead, children excluded.
    pub fn total_own(&self) -> f64 {
        self.total_compute() + self.total_overhead()
    }
}

/// Simulation result of one function: `RegionSim`s in pre-order.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSim {
    /// Function name.
    pub name: String,
    /// One entry per region, in the same pre-order as `RegionNode::walk`.
    pub regions: Vec<RegionSim>,
}

/// Simulation result of one whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSim {
    /// Processor count of the run.
    pub no_pe: u32,
    /// One entry per function, in model order.
    pub functions: Vec<FunctionSim>,
}

/// Simulate one region for `no_pe` processors.
///
/// `is_main_root` charges runtime startup/shutdown to the region (used for
/// the root region of `main`).
pub fn simulate_region(
    w: &Workload,
    calls: &[CallModel],
    machine: &MachineModel,
    no_pe: u32,
    seed: u64,
    region_uid: u64,
    is_main_root: bool,
) -> RegionSim {
    let p = no_pe as usize;
    let passes = w.passes as f64;

    // ---- compute, with normalized skew ---------------------------------
    let raw: Vec<f64> = (0..no_pe)
        .map(|pe| raw_skew(w.skew, w.imbalance, seed, region_uid, pe, no_pe))
        .collect();
    let mean_raw = raw.iter().sum::<f64>() / p as f64;
    let contention = machine.contention_factor(no_pe);
    let compute: Vec<f64> = raw
        .iter()
        .map(|r| {
            passes * (w.serial_work + w.parallel_work / p as f64 * (r / mean_raw)) * contention
        })
        .collect();
    let max_compute = compute.iter().copied().fold(0.0, f64::max);

    let mut overheads: Vec<(TimingType, Vec<f64>)> = Vec::new();
    let mut add = |ty: TimingType, v: Vec<f64>| {
        if v.iter().any(|x| *x > 0.0) {
            overheads.push((ty, v));
        }
    };

    let c = &w.comm;

    // ---- synchronization wait ------------------------------------------
    // The imbalance penalty is paid at the first synchronizing construct.
    let sync_kind = if c.barriers > 0.0 {
        Some(TimingType::Barrier)
    } else if c.collectives > 0.0 {
        Some(c.collective_kind.unwrap_or(TimingType::AllReduce))
    } else {
        None
    };
    let mut barrier_time = vec![0.0; p];
    let mut wait_time = vec![0.0; p];
    if let Some(kind) = sync_kind {
        for pe in 0..p {
            wait_time[pe] = max_compute - compute[pe];
        }
        if kind == TimingType::Barrier {
            let op = c.barriers * passes * machine.barrier_cost(no_pe);
            for pe in 0..p {
                barrier_time[pe] = op + wait_time[pe];
            }
            add(TimingType::Barrier, barrier_time.clone());
        }
    }

    // ---- collectives -----------------------------------------------------
    if c.collectives > 0.0 {
        let kind = c.collective_kind.unwrap_or(TimingType::AllReduce);
        let per_pe = c.collectives * passes * machine.collective_cost(c.collective_bytes, no_pe);
        let mut v = vec![per_pe; p];
        if sync_kind == Some(kind) {
            // The collective is the synchronizing construct: fold the wait in.
            for pe in 0..p {
                v[pe] += wait_time[pe];
            }
        }
        add(kind, v);
    }

    // ---- point-to-point --------------------------------------------------
    if c.ptp_msgs > 0.0 && no_pe > 1 {
        let base = c.ptp_msgs * passes * machine.ptp_cost(c.ptp_bytes);
        let jitter = |pe: u32, stream: u64| {
            1.0 + 0.1 * noise::signed_noise(seed, region_uid, pe as u64, stream)
        };
        add(
            TimingType::PtpSend,
            (0..no_pe).map(|pe| 0.45 * base * jitter(pe, 31)).collect(),
        );
        add(
            TimingType::PtpRecv,
            (0..no_pe).map(|pe| 0.45 * base * jitter(pe, 37)).collect(),
        );
        add(
            TimingType::PtpWait,
            (0..no_pe).map(|pe| 0.10 * base * jitter(pe, 41)).collect(),
        );
        let pack = c.ptp_msgs * passes * c.ptp_bytes * machine.pack_cost_per_byte;
        add(TimingType::BufferPack, vec![pack; p]);
        add(TimingType::BufferUnpack, vec![pack; p]);
    }

    // ---- one-sided -------------------------------------------------------
    if c.shmem_ops > 0.0 && no_pe > 1 {
        let base = c.shmem_ops * passes * machine.shmem_cost(c.shmem_bytes);
        add(TimingType::ShmemPut, vec![0.45 * base; p]);
        add(TimingType::ShmemGet, vec![0.45 * base; p]);
        add(TimingType::ShmemWait, vec![0.10 * base; p]);
    }

    // ---- I/O --------------------------------------------------------------
    if c.io_ops > 0.0 || c.io_bytes > 0.0 {
        let total = machine.io_cost(c.io_bytes * passes, c.io_ops * passes, no_pe);
        let rf = c.io_read_fraction.clamp(0.0, 1.0);
        add(TimingType::IoRead, vec![0.85 * total * rf; p]);
        add(TimingType::IoWrite, vec![0.85 * total * (1.0 - rf); p]);
        add(TimingType::IoOpen, vec![0.05 * total; p]);
        add(TimingType::IoClose, vec![0.05 * total; p]);
        add(TimingType::IoSeek, vec![0.05 * total; p]);
    }

    // ---- runtime ----------------------------------------------------------
    if is_main_root {
        let levels = 1.0 + 0.3 * crate::machine::log2_ceil(no_pe);
        add(TimingType::Startup, vec![machine.startup_base * levels; p]);
        add(
            TimingType::Shutdown,
            vec![machine.shutdown_base * levels; p],
        );
    }
    if w.passes > 0 {
        add(
            TimingType::Instrumentation,
            vec![machine.instr_per_pass * passes; p],
        );
    }

    // ---- call sites --------------------------------------------------------
    let find_type = |ty: TimingType| -> Option<&Vec<f64>> {
        overheads.iter().find(|(t, _)| *t == ty).map(|(_, v)| v)
    };
    let calls_sim: Vec<CallSim> = calls
        .iter()
        .enumerate()
        .map(|(ci, cm)| {
            let counts: Vec<f64> = (0..no_pe)
                .map(|pe| {
                    let n = 1.0
                        + cm.count_imbalance
                            * noise::signed_noise(seed, region_uid, pe as u64, 61 + ci as u64);
                    (cm.count_per_pass * passes * n).max(0.0)
                })
                .collect();
            // Route the callee's time to the matching overhead category.
            let source = match cm.callee.as_str() {
                "barrier" => find_type(TimingType::Barrier),
                "global_sum" | "allreduce" => find_type(TimingType::AllReduce),
                "transpose" | "alltoall" => find_type(TimingType::AllToAll),
                "checkpoint" => find_type(TimingType::IoWrite),
                _ => find_type(TimingType::PtpSend),
            };
            let times: Vec<f64> = match source {
                Some(v) => v.clone(),
                // Unattributed callee: charge a nominal per-call cost.
                None => counts.iter().map(|n| n * 1e-6).collect(),
            };
            CallSim {
                callee: cm.callee.clone(),
                counts,
                times,
            }
        })
        .collect();

    RegionSim {
        region_uid,
        compute,
        overheads,
        calls: calls_sim,
    }
}

/// Simulate a whole program run at `no_pe` processors. Regions are simulated
/// in parallel (rayon), results are assembled in deterministic pre-order.
pub fn simulate_run(model: &ProgramModel, machine: &MachineModel, no_pe: u32) -> RunSim {
    // Flatten all regions so rayon can process them in one parallel pass.
    struct Job<'a> {
        func: usize,
        node: &'a RegionNode,
        uid: u64,
        is_main_root: bool,
    }
    let mut jobs = Vec::new();
    let mut uid = 0u64;
    for (fi, f) in model.functions.iter().enumerate() {
        for (ri, node) in f.root.walk().into_iter().enumerate() {
            jobs.push(Job {
                func: fi,
                node,
                uid,
                is_main_root: fi == 0 && ri == 0,
            });
            uid += 1;
        }
    }

    let sims: Vec<RegionSim> = jobs
        .par_iter()
        .map(|j| {
            simulate_region(
                &j.node.workload,
                &j.node.calls,
                machine,
                no_pe,
                model.seed,
                j.uid,
                j.is_main_root,
            )
        })
        .collect();

    let mut functions: Vec<FunctionSim> = model
        .functions
        .iter()
        .map(|f| FunctionSim {
            name: f.name.clone(),
            regions: Vec::new(),
        })
        .collect();
    for (j, sim) in jobs.iter().zip(sims) {
        functions[j.func].regions.push(sim);
    }
    RunSim { no_pe, functions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetypes;
    use crate::program::{CommProfile, SkewPattern};

    fn balanced_workload() -> Workload {
        Workload {
            passes: 10,
            serial_work: 0.0,
            parallel_work: 1.0,
            imbalance: 0.0,
            skew: SkewPattern::Random,
            comm: CommProfile::none(),
        }
    }

    #[test]
    fn perfect_scaling_without_overheads() {
        let m = MachineModel::ideal();
        let w = balanced_workload();
        let s1 = simulate_region(&w, &[], &m, 1, 0, 0, false);
        let s8 = simulate_region(&w, &[], &m, 8, 0, 0, false);
        let t1 = s1.total_compute();
        let t8 = s8.total_compute();
        // Total work is conserved: summed compute equal across PE counts.
        assert!((t1 - t8).abs() < 1e-9, "{t1} vs {t8}");
        // Per-PE time shrinks by 8.
        assert!((s8.compute[0] - s1.compute[0] / 8.0).abs() < 1e-9);
    }

    #[test]
    fn replicated_serial_work_grows() {
        let m = MachineModel::ideal();
        let w = Workload {
            serial_work: 0.1,
            ..balanced_workload()
        };
        let s1 = simulate_region(&w, &[], &m, 1, 0, 0, false);
        let s8 = simulate_region(&w, &[], &m, 8, 0, 0, false);
        // 10 passes * 0.1s on every PE: summed cost grows linearly.
        assert!((s8.total_compute() - s1.total_compute() - 7.0 * 10.0 * 0.1).abs() < 1e-9);
    }

    #[test]
    fn imbalance_preserves_total_work() {
        let m = MachineModel::ideal();
        let w = Workload {
            imbalance: 0.4,
            ..balanced_workload()
        };
        let s8 = simulate_region(&w, &[], &m, 8, 3, 5, false);
        assert!((s8.total_compute() - 10.0).abs() < 1e-9);
        // But per-PE times differ.
        let min = s8.compute.iter().copied().fold(f64::INFINITY, f64::min);
        let max = s8.compute.iter().copied().fold(0.0, f64::max);
        assert!(max > min * 1.05);
    }

    #[test]
    fn barrier_wait_equals_imbalance_gap() {
        let m = MachineModel::ideal();
        let w = Workload {
            imbalance: 0.4,
            skew: SkewPattern::Linear,
            comm: CommProfile {
                barriers: 1.0,
                ..CommProfile::none()
            },
            ..balanced_workload()
        };
        let s = simulate_region(&w, &[], &m, 4, 3, 5, false);
        let barrier = s
            .overheads
            .iter()
            .find(|(t, _)| *t == TimingType::Barrier)
            .map(|(_, v)| v)
            .unwrap();
        let max_c = s.compute.iter().copied().fold(0.0, f64::max);
        for (pe, b) in barrier.iter().enumerate() {
            assert!((b - (max_c - s.compute[pe])).abs() < 1e-12, "pe {pe}");
        }
        // The slowest PE waits zero.
        assert!(barrier.iter().any(|b| *b < 1e-12));
    }

    #[test]
    fn no_ptp_on_single_pe() {
        let m = MachineModel::t3e_900();
        let w = Workload {
            comm: CommProfile {
                ptp_msgs: 4.0,
                ptp_bytes: 8192.0,
                ..CommProfile::none()
            },
            ..balanced_workload()
        };
        let s1 = simulate_region(&w, &[], &m, 1, 0, 0, false);
        assert!(s1
            .overheads
            .iter()
            .all(|(t, _)| !matches!(t, TimingType::PtpSend | TimingType::PtpRecv)));
        let s4 = simulate_region(&w, &[], &m, 4, 0, 0, false);
        assert!(s4
            .overheads
            .iter()
            .any(|(t, _)| matches!(t, TimingType::PtpSend)));
    }

    #[test]
    fn io_contention_grows_with_pe() {
        let m = MachineModel::t3e_900();
        let w = Workload {
            comm: CommProfile {
                io_ops: 2.0,
                io_bytes: 1e6,
                io_read_fraction: 0.5,
                ..CommProfile::none()
            },
            ..balanced_workload()
        };
        let io_total = |no_pe: u32| {
            simulate_region(&w, &[], &m, no_pe, 0, 0, false)
                .overheads
                .iter()
                .filter(|(t, _)| t.category() == perfdata::OverheadCategory::Io)
                .map(|(_, v)| v.iter().sum::<f64>())
                .sum::<f64>()
        };
        // Summed I/O time grows superlinearly in PE count (shared fs).
        assert!(io_total(16) > io_total(4) * 4.0);
    }

    #[test]
    fn startup_charged_only_to_main_root() {
        let m = MachineModel::t3e_900();
        let w = balanced_workload();
        let root = simulate_region(&w, &[], &m, 4, 0, 0, true);
        let inner = simulate_region(&w, &[], &m, 4, 0, 1, false);
        assert!(root
            .overheads
            .iter()
            .any(|(t, _)| *t == TimingType::Startup));
        assert!(!inner
            .overheads
            .iter()
            .any(|(t, _)| *t == TimingType::Startup));
    }

    #[test]
    fn barrier_call_times_match_barrier_overhead() {
        let m = MachineModel::t3e_900();
        let w = Workload {
            imbalance: 0.3,
            skew: SkewPattern::Linear,
            comm: CommProfile {
                barriers: 2.0,
                ..CommProfile::none()
            },
            ..balanced_workload()
        };
        let calls = vec![CallModel {
            callee: "barrier".to_string(),
            count_per_pass: 2.0,
            count_imbalance: 0.0,
        }];
        let s = simulate_region(&w, &calls, &m, 8, 1, 2, false);
        let barrier = s
            .overheads
            .iter()
            .find(|(t, _)| *t == TimingType::Barrier)
            .map(|(_, v)| v.clone())
            .unwrap();
        assert_eq!(s.calls[0].times, barrier);
        assert_eq!(s.calls[0].counts[0], 2.0 * 10.0);
    }

    #[test]
    fn run_simulation_is_deterministic_and_parallel_safe() {
        let model = archetypes::stencil3d(7);
        let m = MachineModel::t3e_900();
        let a = simulate_run(&model, &m, 16);
        let b = simulate_run(&model, &m, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn contention_inflates_compute() {
        let mut m = MachineModel::ideal();
        m.contention_coeff = 0.01;
        let w = balanced_workload();
        let s8 = simulate_region(&w, &[], &m, 8, 0, 0, false);
        // Total compute is inflated by 1 + 0.01*ln(8).
        let expect = 10.0 * (1.0 + 0.01 * 8.0f64.ln());
        assert!((s8.total_compute() - expect).abs() < 1e-9);
    }
}
