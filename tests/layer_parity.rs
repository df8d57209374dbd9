//! Refactor-parity suite for the unified layer engine (DESIGN.md §9).
//!
//! Two guarantees:
//!
//! 1. **Golden byte-identity** — the fig. 3 (motivation) and fig. 8
//!    (clean-slate) grids render their tables and JSON exports exactly as
//!    they did before `GuestMm`/`HostMm` were rebuilt on `LayerEngine`,
//!    at `jobs = 1` and `jobs = N` alike, and the fig. 17/18 collocated
//!    pair renders exactly as it did before the three `Machine` driver
//!    loops became one scheduler (DESIGN.md §14). The goldens under
//!    `tests/golden/` were captured from the pre-refactor trees;
//!    regenerate deliberately with `GEMINI_BLESS=1` after an
//!    *intentional* behaviour change.
//! 2. **Layer parity** — the same `HugePolicy` driven through the guest
//!    and host instantiations of `LayerEngine` on one DetRng-generated
//!    fault/touch trace produces identical effects, promotion counts and
//!    fragmentation indices (the two layers are one mechanism).

use gemini_harness::experiments::{clean_slate, collocated, motivation};
use gemini_harness::{trace, Scale};

/// Worker-thread count for the `jobs = N` leg (`GEMINI_JOBS`, default 4).
fn jobs_n() -> usize {
    std::env::var("GEMINI_JOBS")
        .ok()
        .and_then(|j| j.parse().ok())
        .filter(|&j| j != 1)
        .unwrap_or(4)
}

/// The reduced-but-representative scale both grids run at.
fn golden_scale(jobs: usize) -> Scale {
    Scale {
        ops: 1_200,
        jobs,
        ..Scale::quick()
    }
}

/// Renders the motivation (fig. 3 + table 1) artefacts plus the JSON
/// export of every cell, in grid order.
fn motivation_artifacts(jobs: usize) -> (String, String) {
    let res = motivation::run(&golden_scale(jobs)).expect("motivation grid runs");
    let mut text = res.render_fig03();
    text.push_str(&res.render_tab01());
    let json: Vec<String> = res.runs.iter().flatten().map(trace::result_json).collect();
    (text, json.join("\n") + "\n")
}

/// Renders the clean-slate (fig. 8, both fragmentation variants)
/// artefacts plus the JSON export of every cell, in grid order.
fn clean_slate_artifacts(jobs: usize) -> (String, String) {
    let res = clean_slate::run(&golden_scale(jobs), Some(&["Masstree", "Redis"]))
        .expect("clean-slate grid runs");
    let mut text = res.render_fig08(false);
    text.push_str(&res.render_fig08(true));
    let json: Vec<String> = res
        .grid
        .iter()
        .flatten()
        .flatten()
        .map(trace::result_json)
        .collect();
    (text, json.join("\n") + "\n")
}

/// Renders the collocated (figs. 17–18) tables for one pair, plus every
/// `RunResult` in full: the tables are ratios, so they alone would hide
/// a drifted counter or fragmentation index. Each JSON line carries the
/// export row and the complete debug rendering of the result.
fn collocated_artifacts(jobs: usize) -> (String, String) {
    let res = collocated::run(&golden_scale(jobs), Some(&[("Redis", "SP.D")]))
        .expect("collocated pair runs");
    let mut text = res.render_fig17();
    text.push_str(&res.render_fig18());
    let json: Vec<String> = res
        .runs
        .iter()
        .flatten()
        .flatten()
        .map(|r| {
            let row = trace::result_json(r);
            let full = gemini_obs::json_str(&format!("{r:?}"));
            format!("{},\"full\":{full}}}", &row[..row.len() - 1])
        })
        .collect();
    (text, json.join("\n") + "\n")
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Compares `actual` against the stored golden, or rewrites the golden
/// when `GEMINI_BLESS=1` (deliberate recalibration only).
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("GEMINI_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with GEMINI_BLESS=1"));
    assert_eq!(
        expected, actual,
        "{name} drifted from its pre-refactor golden"
    );
}

/// Collapses layer-specific effect bookkeeping into a comparable shape:
/// guest promotions land in `gva_regions_invalidated`, host promotions in
/// `gpa_regions_changed` — the merged list plus the scalar costs must
/// match exactly across instantiations.
fn norm_fx(fx: gemini_mm::Effects) -> (u64, Vec<u64>, u64, u64, u64) {
    let mut regions = fx.gva_regions_invalidated;
    regions.extend(fx.gpa_regions_changed);
    (
        fx.cycles.0,
        regions,
        fx.shootdowns,
        fx.pages_copied,
        fx.pages_zeroed,
    )
}

/// Drives one policy through the guest and host instantiations of
/// `LayerEngine` on the same DetRng fault/touch trace and asserts the
/// two layers behave identically step by step.
fn assert_layer_parity(kind: gemini_policies::PolicyKind, seed: u64) {
    use gemini_mm::{CostModel, FaultSite, GuestLayer, HostLayer, LayerEngine};
    use gemini_sim_core::rng::DetRng;
    use gemini_sim_core::{Cycles, VmId};

    // The layers legitimately differ only in which fault-cost constants
    // apply; a symmetric cost model makes byte-equal effects the
    // expected outcome.
    let mut costs = CostModel::default();
    costs.ept_fault = costs.minor_fault;
    costs.ept_huge_fault_extra = costs.huge_fault_extra;

    let vm = VmId(1);
    let mut guest: LayerEngine<GuestLayer> = LayerEngine::new(4096, costs.clone());
    let mut host: LayerEngine<HostLayer> = LayerEngine::new(4096, costs);
    guest.register_vm(vm);
    host.register_vm(vm);
    let mut gp = gemini_policies::build(kind);
    let mut hp = gemini_policies::build(kind);

    let mut rng = DetRng::new(seed);
    for step in 0..3_000u64 {
        let frame = rng.below(6 * 512);
        let now = Cycles(step * 1_000);
        if guest
            .table(vm)
            .expect("vm registered")
            .translate(frame)
            .is_none()
        {
            let g = guest.fault(vm, frame, FaultSite::anonymous(), &mut *gp);
            let h = host.fault(vm, frame, FaultSite::anonymous(), &mut *hp);
            let (go, gfx) = g.expect("guest fault resolves");
            let (ho, hfx) = h.expect("host fault resolves");
            assert_eq!(go.size, ho.size, "fault page size at step {step}");
            assert_eq!(go.pa_frame, ho.pa_frame, "fault placement at step {step}");
            assert_eq!(norm_fx(gfx), norm_fx(hfx), "fault effects at step {step}");
        }
        guest.record_touch(vm, frame);
        host.record_touch(vm, frame);
        if step % 64 == 63 {
            let gfx = guest
                .run_daemon(vm, &mut *gp, now, 1)
                .expect("guest daemon");
            let hfx = host.run_daemon(vm, &mut *hp, now, 1).expect("host daemon");
            assert_eq!(norm_fx(gfx), norm_fx(hfx), "daemon effects at step {step}");
            let gt = guest.table(vm).expect("vm registered");
            let ht = host.table(vm).expect("vm registered");
            assert_eq!(gt.huge_mapped(), ht.huge_mapped(), "promotions at {step}");
            assert_eq!(gt.base_mapped(), ht.base_mapped(), "mappings at {step}");
        }
    }
    // Densely populate the first two regions so threshold-based policies
    // (Ingens' utilization gate) promote too, then give the daemons a
    // few more passes.
    for frame in 0..2 * 512 {
        if guest
            .table(vm)
            .expect("vm registered")
            .translate(frame)
            .is_none()
        {
            let g = guest.fault(vm, frame, FaultSite::anonymous(), &mut *gp);
            let h = host.fault(vm, frame, FaultSite::anonymous(), &mut *hp);
            assert_eq!(
                norm_fx(g.expect("guest fault resolves").1),
                norm_fx(h.expect("host fault resolves").1),
                "fill fault effects at frame {frame}"
            );
        }
        guest.record_touch(vm, frame);
        host.record_touch(vm, frame);
    }
    for pass in 0..4u64 {
        let now = Cycles(3_000_000 + pass * 1_000_000);
        let gfx = guest
            .run_daemon(vm, &mut *gp, now, 1)
            .expect("guest daemon");
        let hfx = host.run_daemon(vm, &mut *hp, now, 1).expect("host daemon");
        assert_eq!(
            norm_fx(gfx),
            norm_fx(hfx),
            "fill daemon effects, pass {pass}"
        );
    }
    assert!(
        guest.table(vm).expect("vm registered").huge_mapped() > 0,
        "trace must actually exercise promotions for {kind:?}"
    );
    assert_eq!(
        guest.fragmentation_index(),
        host.fragmentation_index(),
        "fragmentation indices diverged for {kind:?}"
    );
    assert_eq!(guest.buddy.used_frames(), host.buddy.used_frames());
}

#[test]
fn same_policy_is_identical_through_guest_and_host_engines() {
    assert_layer_parity(gemini_policies::PolicyKind::Thp, 0xA11CE);
    assert_layer_parity(gemini_policies::PolicyKind::Ingens, 0xB0B);
}

#[test]
fn fig3_grid_is_byte_identical_to_prerefactor_golden() {
    for jobs in [1, jobs_n()] {
        let (text, json) = motivation_artifacts(jobs);
        assert_golden("fig03_motivation.txt", &text);
        assert_golden("fig03_motivation.jsonl", &json);
    }
}

#[test]
fn collocated_pair_is_byte_identical_to_single_driver_golden() {
    for jobs in [1, jobs_n()] {
        let (text, json) = collocated_artifacts(jobs);
        assert_golden("collocated.txt", &text);
        assert_golden("collocated.jsonl", &json);
    }
}

#[test]
fn fig8_grid_is_byte_identical_to_prerefactor_golden() {
    for jobs in [1, jobs_n()] {
        let (text, json) = clean_slate_artifacts(jobs);
        assert_golden("fig08_clean_slate.txt", &text);
        assert_golden("fig08_clean_slate.jsonl", &json);
    }
}
