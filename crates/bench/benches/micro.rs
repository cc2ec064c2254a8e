//! Criterion micro-benchmarks for the performance-critical components:
//! the mapping PRP (must be "low-latency" like K-cipher), the trackers (one
//! call per ACT), Fractal Mitigation, the DRAM device command path, and a
//! small end-to-end system step.

use autorfm::cpu::{Core, CoreParams, Op, Uncore, UncoreParams};
use autorfm::dram::{DeviceMitigation, DramConfig, DramDevice};
use autorfm::mapping::{FeistelPrp, MemoryMap, RubixMap, ZenMap};
use autorfm::memctrl::{MemController, MemRequest};
use autorfm::mitigation::{FractalPolicy, MitigationPolicy};
use autorfm::sim_core::{BankId, Cycle, DetRng, Geometry, LineAddr, RowAddr};
use autorfm::trackers::{build_tracker, MitigationTarget, TrackerKind};
use autorfm::{experiments::Scenario, SimConfig, System};
use autorfm_workloads::WorkloadSpec;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_prp(c: &mut Criterion) {
    let prp = FeistelPrp::new(29, 0xC0FFEE).unwrap();
    c.bench_function("prp/encrypt_29bit", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = (x + 1) & ((1 << 29) - 1);
            black_box(prp.encrypt(x))
        })
    });
}

fn bench_mapping(c: &mut Criterion) {
    let g = Geometry::paper_baseline();
    let zen = ZenMap::new(g).unwrap();
    let rubix = RubixMap::new(g, 7).unwrap();
    c.bench_function("mapping/zen_locate", |b| {
        let mut l = 0u64;
        b.iter(|| {
            l = (l + 97) & (g.total_lines() - 1);
            black_box(zen.locate(LineAddr(l)))
        })
    });
    c.bench_function("mapping/rubix_locate", |b| {
        let mut l = 0u64;
        b.iter(|| {
            l = (l + 97) & (g.total_lines() - 1);
            black_box(rubix.locate(LineAddr(l)))
        })
    });
}

fn bench_trackers(c: &mut Criterion) {
    for kind in [TrackerKind::Mint, TrackerKind::Pride, TrackerKind::Mithril] {
        let mut tracker = build_tracker(kind, 4).unwrap();
        let mut rng = DetRng::seeded(1);
        c.bench_function(format!("tracker/{kind}_window"), |b| {
            let mut row = 0u32;
            b.iter(|| {
                for _ in 0..4 {
                    row = row.wrapping_add(977) & 0x1FFFF;
                    tracker.on_activation(RowAddr(row), &mut rng);
                }
                black_box(tracker.select_for_mitigation(&mut rng))
            })
        });
    }
}

fn bench_mitigation(c: &mut Criterion) {
    let fm = FractalPolicy::new();
    let mut rng = DetRng::seeded(2);
    c.bench_function("mitigation/fractal_victims", |b| {
        b.iter(|| {
            black_box(fm.victims(MitigationTarget::direct(RowAddr(65_000)), 131_072, &mut rng))
        })
    });
}

fn bench_device(c: &mut Criterion) {
    c.bench_function("device/act_pre_autorfm", |b| {
        let cfg = DramConfig {
            geometry: Geometry::paper_baseline(),
            mitigation: DeviceMitigation::auto_rfm(4),
            ..DramConfig::default()
        };
        let mut dev = DramDevice::new(cfg, 3).unwrap();
        let mut now = Cycle::from_ns(10);
        let mut row = 0u32;
        b.iter(|| {
            row = row.wrapping_add(977) & 0x1FFFF;
            now = now.max(dev.earliest_act(BankId(0)));
            match dev.try_act(BankId(0), RowAddr(row), now) {
                autorfm::dram::ActOutcome::Accepted => {
                    let pre = dev.earliest_pre(BankId(0));
                    dev.precharge(BankId(0), pre);
                    now = pre;
                }
                autorfm::dram::ActOutcome::Alerted { retry_at } => now = retry_at,
            }
            black_box(now)
        })
    });
}

fn bench_controller(c: &mut Criterion) {
    c.bench_function("memctrl/read_roundtrip", |b| {
        let g = Geometry::small();
        let dev = DramDevice::new(
            DramConfig {
                geometry: g,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        let mut mc = MemController::new(ZenMap::new(g).unwrap(), dev, Default::default());
        let mut uncore = Uncore::new(UncoreParams::default()).unwrap();
        let mut core = Core::new(0, CoreParams::default());
        let mut line = 0u64;
        let mut now = Cycle::ZERO;
        b.iter(|| {
            let mut stream = || {
                line = (line + 1) & (g.total_lines() - 1);
                Op::Load {
                    line: LineAddr(line),
                    dependent: false,
                }
            };
            for _ in 0..32 {
                now += Cycle::new(4);
                core.step(now, 4, &mut stream, &mut uncore);
                uncore.tick(&mut mc, now);
                mc.tick(now);
                uncore.tick(&mut mc, now);
            }
            black_box(core.retired())
        })
    });
}

/// `MemController::next_event_at` under the queue mixes that bracket the
/// event kernel's query cost: idle-bank-heavy (every bank clean and empty —
/// the floor the dirty-tracked cache must hit so low-traffic leaps stay
/// cheap) and hot-bank-heavy (every bank holding queued work, cached vs.
/// re-derived from a full queue scan). Next to them, `tick_event` over a
/// loaded controller with no bank due.
fn bench_wake(c: &mut Criterion) {
    let g = Geometry::paper_baseline();
    let new_mc = || {
        let dev = DramDevice::new(
            DramConfig {
                geometry: g,
                mitigation: DeviceMitigation::auto_rfm(4),
                ..DramConfig::default()
            },
            7,
        )
        .unwrap();
        MemController::new(ZenMap::new(g).unwrap(), dev, Default::default())
    };
    let fill = |mc: &mut MemController<ZenMap>, now: Cycle, base: u64, count: u64| {
        for i in 0..count {
            mc.enqueue(
                MemRequest {
                    id: base + i,
                    core: 0,
                    line: LineAddr((base + i) & (g.total_lines() - 1)),
                    is_write: false,
                },
                now,
            );
        }
    };

    // All 64 banks idle, cache clean: the query is the device wake plus a
    // scan of empty bitmask words.
    c.bench_function("wake/next_event_idle", |b| {
        let mut mc = new_mc();
        let mut now = Cycle::from_ns(100);
        mc.tick(now);
        mc.next_event_at(now);
        b.iter(|| {
            now += Cycle::new(4);
            black_box(mc.next_event_at(now))
        })
    });

    // Every bank active with queued reads, cache clean: the pure
    // combine-over-active-banks arithmetic, no refreshes.
    c.bench_function("wake/next_event_hot_cached", |b| {
        let mut mc = new_mc();
        let mut now = Cycle::from_ns(100);
        fill(&mut mc, now, 0, 256);
        mc.tick(now);
        mc.next_event_at(now);
        b.iter(|| {
            now += Cycle::new(4);
            black_box(mc.next_event_at(now))
        })
    });

    // Steady-state churn: every tick services (dirtying banks), every query
    // refreshes them — the event kernel's hot-workload mix.
    c.bench_function("wake/next_event_hot_churn", |b| {
        let mut mc = new_mc();
        let mut now = Cycle::from_ns(100);
        let mut id = 0u64;
        b.iter(|| {
            if mc.pending_requests() < 64 {
                fill(&mut mc, now, id, 64);
                id += 64;
            }
            now += Cycle::new(4);
            mc.tick(now);
            mc.take_responses();
            black_box(mc.next_event_at(now))
        })
    });

    // The tick layer alone: all 64 banks queued but none due, every one
    // held by the all-bank REF's blocking window (`now` stays inside it).
    // Each call walks the active banks and finds nothing to service, so
    // it times the tick's per-bank cost without any command issue.
    c.bench_function("memctrl/tick_event_loaded", |b| {
        let mut mc = new_mc();
        let now = mc.device().next_ref_at();
        mc.tick_event(now);
        fill(&mut mc, now, 0, 256);
        mc.tick_event(now);
        assert!(!mc.has_responses() && mc.pending_requests() == 256);
        b.iter(|| mc.tick_event(black_box(now)))
    });

    // The same hot wake re-derived from a full scan of every bank queue:
    // what every query cost before the dirty-tracked cache.
    c.bench_function("wake/fresh_full_scan_hot", |b| {
        let mut mc = new_mc();
        let mut now = Cycle::from_ns(100);
        fill(&mut mc, now, 0, 256);
        mc.tick(now);
        b.iter(|| {
            now += Cycle::new(4);
            black_box(mc.fresh_next_event_at(now))
        })
    });
}

/// LLC lookup fast path vs worst case: a re-hit on the per-set MRU hint
/// (the hot-way cache answers without touching the set's ways) against a
/// round-robin over every way of one set (each access hits a *different*
/// way than the hint names, so every lookup pays the full way scan plus the
/// LRU age sweep).
fn bench_llc(c: &mut Criterion) {
    use autorfm::cpu::{Llc, LlcParams};
    let p = LlcParams::default();
    let sets = p.capacity_bytes / u64::from(p.line_bytes) / u64::from(p.ways);

    c.bench_function("llc/hot_hit", |b| {
        let mut llc = Llc::new(p).unwrap();
        llc.access(LineAddr(3), false);
        llc.fill(LineAddr(3), false);
        b.iter(|| black_box(llc.access(LineAddr(3), false)))
    });

    c.bench_function("llc/way_scan", |b| {
        let mut llc = Llc::new(p).unwrap();
        // One line per way of set 3: round-robin hits defeat the MRU hint.
        let lines: Vec<LineAddr> = (0..u64::from(p.ways))
            .map(|k| LineAddr(3 + k * sets))
            .collect();
        for &line in &lines {
            llc.access(line, false);
            llc.fill(line, false);
        }
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % lines.len();
            black_box(llc.access(lines[k], false))
        })
    });
}

fn bench_system(c: &mut Criterion) {
    c.bench_function("system/autorfm4_1kinstr_2core", |b| {
        let spec = WorkloadSpec::by_name("mcf").unwrap();
        b.iter(|| {
            let cfg = SimConfig::builder(spec)
                .scenario(Scenario::AutoRfm { th: 4 })
                .cores(2)
                .instructions(1_000)
                .warmup_mem_ops(100)
                .build()
                .unwrap();
            black_box(System::new(cfg).unwrap().run().perf())
        })
    });
}

fn bench_checker(c: &mut Criterion) {
    use autorfm::dram::{CommandKind, CommandTrace, TimingChecker};
    // A realistic 10K-command clean trace, checked end-to-end.
    let t = autorfm::sim_core::DramTimings::ddr5();
    let mut trace = CommandTrace::new(64_000);
    for b in 0..8u16 {
        let mut now = Cycle::from_ns(100 + b as u64 * 7);
        for r in 0..1_000u32 {
            trace.record(now, BankId(b), CommandKind::Act { row: RowAddr(r) });
            trace.record(now + t.t_rcd, BankId(b), CommandKind::Rd);
            trace.record(now + t.t_ras, BankId(b), CommandKind::Pre);
            now += t.t_rc + Cycle::from_ns(16);
        }
    }
    let checker = TimingChecker::new(t, Geometry::paper_baseline());
    c.bench_function("trace/check_24k_commands", |b| {
        b.iter(|| black_box(checker.check(&trace).is_ok()))
    });
}

fn bench_tracefile(c: &mut Criterion) {
    use autorfm_workloads::TraceFile;
    let spec = WorkloadSpec::by_name("mcf").unwrap();
    let dir = std::env::temp_dir().join("autorfm-bench-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.trace");
    let mut gen = autorfm_workloads::WorkloadGen::new(spec, 0, 1);
    TraceFile::record(&path, &mut gen, 10_000).unwrap();
    c.bench_function("tracefile/load_10k_ops", |b| {
        b.iter(|| black_box(TraceFile::load(&path).unwrap().ops().len()))
    });
}

criterion_group!(
    benches,
    bench_prp,
    bench_mapping,
    bench_trackers,
    bench_mitigation,
    bench_device,
    bench_controller,
    bench_wake,
    bench_llc,
    bench_system,
    bench_checker,
    bench_tracefile
);
criterion_main!(benches);
