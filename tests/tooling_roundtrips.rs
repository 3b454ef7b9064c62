//! Cross-crate tooling round-trips: the file formats and offline tools
//! must compose — machine files drive the planner, serialized traces
//! replay identically to live ones, timing logs parse back, and diagnostic
//! CSVs survive an EM + shaped-geometry campaign.

use xgyro_repro::cluster;
use xgyro_repro::comm::{traces_from_csv, traces_to_csv};
use xgyro_repro::costmodel::{parse_machine, MachineModel, Placement};
use xgyro_repro::sim::{CgyroInput, History};
use xgyro_repro::tensor::ProcGrid;
use xgyro_repro::xgyro::{gradient_sweep, run_xgyro};

#[test]
fn machine_file_drives_the_planner_like_the_preset() {
    // A machine file that names the preset must produce the same plan.
    let input = CgyroInput::nl03c_like();
    let from_file = parse_machine("PRESET=frontier-like\n").unwrap();
    let preset = MachineModel::frontier_like();
    let a = cluster::min_nodes(&input, 1, &from_file, 128).unwrap();
    let b = cluster::min_nodes(&input, 1, &preset, 128).unwrap();
    assert_eq!(a.nodes, b.nodes);
    assert_eq!(a.per_rank_bytes, b.per_rank_bytes);

    // Halving the usable memory must push the minimum allocation up.
    let tight = parse_machine("PRESET=frontier-like\nUSABLE_MEM_FRACTION=0.33\n").unwrap();
    let c = cluster::min_nodes(&input, 1, &tight, 512).unwrap();
    assert!(c.nodes > a.nodes, "{} !> {}", c.nodes, a.nodes);
}

#[test]
fn serialized_traces_replay_identically_to_live_ones() {
    let mut base = CgyroInput::test_small();
    base.nonlinear_coupling = 0.1;
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(2, 1));
    let outcome = run_xgyro(&cfg, 2);

    let machine = MachineModel::frontier_like();
    let placement = Placement { ranks_per_node: machine.ranks_per_node };
    let live = cluster::replay(&outcome.traces, &machine, placement, |_, _| 1e-5).unwrap();

    let csv = traces_to_csv(&outcome.traces);
    let loaded = traces_from_csv(&csv).unwrap();
    let replayed = cluster::replay(&loaded, &machine, placement, |_, _| 1e-5).unwrap();

    assert_eq!(live.finish_times, replayed.finish_times);
    assert_eq!(live.wait_times, replayed.wait_times);
}

#[test]
fn timing_logs_parse_for_both_figure2_columns() {
    let input = CgyroInput::nl03c_like();
    let machine = MachineModel::frontier_like();
    let policy = cluster::SchedulePolicy::production();
    let cgp = cluster::plan(&input, 1, 32, &machine).unwrap();
    let xgp = cluster::plan(&input, 8, 32, &machine).unwrap();
    let cg = cluster::simulate_cgyro_sequential(&input, cgp.grid, 8, 32, &machine, &policy);
    let xg = cluster::simulate_xgyro(&input, xgp.grid, 8, 32, &machine, &policy);
    for scenario in [&cg, &xg] {
        let log = cluster::cgyro_timing_log(scenario, 3, 27.0);
        let totals = cluster::parse_timing_totals(&log);
        assert_eq!(totals.len(), 3);
        for t in &totals {
            assert!((t - scenario.total()).abs() < 0.05 * scenario.total());
        }
    }
    // The two logs must tell the paper's story: XGYRO total below the
    // sequential sum.
    assert!(xg.total() < cg.total());
}

#[test]
fn em_shaped_campaign_histories_roundtrip_csv() {
    // EM + shaped geometry + ensemble + CSV: every extension at once.
    let mut base = CgyroInput::test_small();
    base.beta_e = 0.01;
    base.kappa = 1.3;
    base.delta = 0.15;
    base.steps_per_report = 5;
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(2, 1));
    let opts = xgyro_repro::xgyro::Run { history: true, ..xgyro_repro::xgyro::Run::new(3 * base.steps_per_report) };
    let histories =
        xgyro_repro::xgyro::run(&cfg, &opts, |_| xgyro_repro::xgyro::Decision::Continue)
            .unwrap()
            .histories;
    for hist in &histories {
        assert_eq!(hist.len(), 3);
        let csv = hist.to_csv();
        let back = History::from_csv(&csv).unwrap();
        assert_eq!(back.len(), hist.len());
        for (a, b) in hist.entries().iter().zip(back.entries()) {
            // The CSV keeps 9 significant digits.
            assert!(
                (a.field_energy - b.field_energy).abs()
                    <= 1e-8 * (1.0 + a.field_energy.abs())
            );
        }
    }
}

#[test]
fn campaign_optimizer_agrees_with_manual_forecast() {
    // The optimizer's node-hours for each k must equal batches × the
    // simulate_xgyro forecast — no hidden factors.
    let input = CgyroInput::nl03c_like();
    let machine = MachineModel::frontier_like();
    let policy = cluster::SchedulePolicy::production();
    let reports = 4;
    let plan = cluster::optimize_campaign(&input, 8, 32, reports, &machine, &policy).unwrap();
    for opt in &plan.options {
        let p = cluster::plan(&input, opt.k, 32, &machine).unwrap();
        let forecast = cluster::simulate_xgyro(&input, p.grid, opt.k, 32, &machine, &policy);
        let manual =
            opt.batches as f64 * forecast.total() * reports as f64 * 32.0 / 3600.0;
        assert!(
            (opt.node_hours - manual).abs() < 1e-9 * manual,
            "k={}: {} vs {}",
            opt.k,
            opt.node_hours,
            manual
        );
    }
}
