//! The traced replay: for every cell, the same public calls the
//! campaign makes, single-threaded and in schedule order, each inside a
//! span. Folds and merges follow the executor's `FOLD_CHUNK` merge tree,
//! so the replay's digest must equal the end-to-end run's.
//!
//! Some of the campaign's private glue is mirrored here: the attack
//! trials' seed derivation, the majority vote over trials and the
//! checkpoint cadence. A campaign change the replay does not follow
//! shows as a digest mismatch, which fails every run.

use std::collections::BTreeMap;
use std::path::Path;

use acquisition::{
    classified_schedule, cpa_schedule, cpa_seed, trace_seed, LeakageStudy, ProtocolConfig,
    Stimulus, NUM_CLASSES,
};
use campaign::{
    config_digest, resume_checkpoint, AttackAccumulator, CacheMode, CampaignKey, CheckpointWriter,
    Digest, DistinguisherReport, SpectrumAccumulator, StoreKind, StoreReader, StoreWriter,
    TraceCache,
};
use gatesim::{Derating, LaneStimulus, Simulator, LANES};
use leakage_core::online::{TreeReducer, FOLD_CHUNK};
use leakage_core::{ClassifiedTraces, LeakageSpectrum};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbox_circuits::{SboxCircuit, Scheme};
use sca_attacks::CpaResult;

use crate::trace::{Layer, Tracer};
use crate::workload::{
    cell_label, digest_attack_cell, digest_spectrum_cell, Plan, Workload, CHECKPOINT_EVERY,
};

/// Replay one pass of `plan` under `t` and return its digest. `dir` is
/// the store the warm workload reads (filled by
/// [`crate::e2e::fill_warm_store`]); the other
/// workloads write their stores and checkpoints there, so it must start
/// empty. Stops `t`'s clock.
pub fn replay(plan: &Plan, dir: &Path, t: &mut Tracer) -> u64 {
    let mut d = Digest::new();
    match plan.workload {
        Workload::SpectraCold => spectra_batch(plan, dir, t, &mut d),
        Workload::SpectraStream => spectra_stream(plan, t, &mut d),
        Workload::SpectraWarm => spectra_warm(plan, dir, t, &mut d),
        Workload::Attack => attack(plan, dir, t, &mut d),
    }
    t.finish();
    d.finish()
}

/// The campaign's checkpoint sink: a frame per trace, a sync every
/// [`CHECKPOINT_EVERY`] frames and one at the end.
struct Checkpoint {
    writer: CheckpointWriter,
    since_sync: usize,
}

impl Checkpoint {
    fn open(t: &mut Tracer, cache: &TraceCache, key: &CampaignKey) -> Self {
        let path = cache.checkpoint_path(key);
        let (_, writer) = t.span(Layer::Checkpoint, || {
            resume_checkpoint(&path, &key.expected_meta()).expect("replay checkpoint opens")
        });
        Self {
            writer,
            since_sync: 0,
        }
    }

    fn record(&mut self, t: &mut Tracer, index: usize, label: u16, trace: &[f64]) {
        let synced = t.span(Layer::Checkpoint, || {
            self.writer
                .record(index as u32, label, trace)
                .expect("replay checkpoint frame");
            self.since_sync += 1;
            let sync = self.since_sync >= CHECKPOINT_EVERY;
            if sync {
                self.since_sync = 0;
                self.writer.sync().expect("replay checkpoint sync");
            }
            sync
        });
        t.counters.checkpoint_syncs += u64::from(synced);
    }

    fn finish(mut self, t: &mut Tracer) {
        t.span(Layer::Checkpoint, || {
            self.writer.sync().expect("replay checkpoint sync")
        });
        t.counters.checkpoint_syncs += 1;
    }
}

/// The circuit and its derating at `months`, as the campaign derives
/// them (age 0 skips profiling the stress workload).
fn device(
    plan: &Plan,
    protocol: &ProtocolConfig,
    t: &mut Tracer,
    scheme: Scheme,
    months: f64,
) -> (SboxCircuit, Derating) {
    let circuit = t.span(Layer::Build, || SboxCircuit::build(scheme));
    let derating = t.span(Layer::Derate, || {
        if months == 0.0 {
            Derating::fresh(circuit.netlist())
        } else {
            LeakageStudy::new(protocol.clone())
                .with_conditions(plan.conditions())
                .aged_device(&circuit)
                .derating_at_months(months)
        }
    });
    (circuit, derating)
}

/// The campaign's cache over the stores under `dir`.
fn trace_cache(dir: &Path) -> TraceCache {
    TraceCache::new(dir.to_path_buf(), CacheMode::ReadWrite)
}

/// The key of a classified cell's store.
fn classified_key(
    plan: &Plan,
    protocol: &ProtocolConfig,
    scheme: Scheme,
    months: f64,
) -> CampaignKey {
    CampaignKey {
        kind: StoreKind::Classified,
        implementation: scheme.label().to_string(),
        seed: protocol.seed,
        traces: (protocol.traces_per_class * NUM_CLASSES) as u32,
        samples: protocol.sampling.samples as u32,
        age_months: months,
        class_or_key: NUM_CLASSES as u16,
        config_digest: config_digest(protocol, &plan.conditions()),
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Batch analysis on the event engine with a checkpoint and a store
/// write per cell.
fn spectra_batch(plan: &Plan, dir: &Path, t: &mut Tracer, d: &mut Digest) {
    let protocol = plan.protocol();
    let sampling = &protocol.sampling;
    let cache = trace_cache(dir);
    for (scheme, months) in plan.cells() {
        let cell = cell_label(scheme, months);
        t.cell(cell.clone());
        let (circuit, derating) = device(plan, &protocol, t, scheme, months);
        let sim = t.span(Layer::SimSetup, || {
            Simulator::with_derating(circuit.netlist(), &protocol.sim, &derating)
        });
        let mut session = t.span(Layer::SimSetup, || sim.session());
        let schedule = t.span(Layer::Schedule, || classified_schedule(&circuit, &protocol));
        let key = classified_key(plan, &protocol, scheme, months);
        let mut checkpoint = Checkpoint::open(t, &cache, &key);

        let mut traces = ClassifiedTraces::new(NUM_CLASSES, sampling.samples);
        let mut events = 0usize;
        for (i, s) in schedule.iter().enumerate() {
            let (trace, stats) = t.span(Layer::Capture, || {
                let mut rng = SmallRng::seed_from_u64(trace_seed(protocol.seed, i as u64));
                let mut trace = Vec::new();
                let stats = session.capture_into(
                    &s.initial,
                    &s.final_inputs,
                    sampling,
                    &mut rng,
                    &mut trace,
                );
                (trace, stats)
            });
            checkpoint.record(t, i, s.label, &trace);
            traces.push(usize::from(s.label), trace);
            events += stats.events;
        }
        checkpoint.finish(t);
        t.counters.traces += schedule.len() as u64;
        t.counters.events += events as u64;

        let path = cache.path_for(&key);
        t.span(Layer::StoreWrite, || {
            write_store(&path, &key, &schedule, &traces)
        });
        t.counters.store_write_bytes += file_len(&path);
        // A published store retires its checkpoint.
        t.span(Layer::Checkpoint, || {
            std::fs::remove_file(cache.checkpoint_path(&key)).expect("checkpoint retires")
        });

        let means = t.span(Layer::ClassMeans, || traces.class_means());
        let spectrum = t.span(Layer::Wht, || LeakageSpectrum::from_class_means(&means));
        digest_spectrum_cell(d, &cell, &spectrum, &traces.class_counts(), events);
    }
}

fn write_store(path: &Path, key: &CampaignKey, schedule: &[Stimulus], traces: &ClassifiedTraces) {
    let mut w = StoreWriter::create(path, key.expected_meta()).expect("replay store is writable");
    for (s, (_, trace)) in schedule.iter().zip(traces.iter()) {
        w.record(s.label, trace).expect("replay store record");
    }
    w.finish().expect("replay store publishes");
}

/// Re-read the prepared store: the campaign builds the circuit before
/// its cache lookup, then reads, takes class means and projects.
fn spectra_warm(plan: &Plan, dir: &Path, t: &mut Tracer, d: &mut Digest) {
    let protocol = plan.protocol();
    let cache = trace_cache(dir);
    for (scheme, months) in plan.cells() {
        let cell = cell_label(scheme, months);
        t.cell(cell.clone());
        let circuit = t.span(Layer::Build, || SboxCircuit::build(scheme));
        std::hint::black_box(&circuit);
        let key = classified_key(plan, &protocol, scheme, months);
        let path = cache.path_for(&key);
        let traces = t.span(Layer::StoreRead, || {
            let reader = StoreReader::open(&path).expect("prepared store opens");
            assert_eq!(
                *reader.meta(),
                key.expected_meta(),
                "store header matches its key"
            );
            reader.read_classified().expect("prepared store reads back")
        });
        t.counters.store_read_bytes += file_len(&path);
        let means = t.span(Layer::ClassMeans, || traces.class_means());
        let spectrum = t.span(Layer::Wht, || LeakageSpectrum::from_class_means(&means));
        digest_spectrum_cell(d, &cell, &spectrum, &traces.class_counts(), 0);
    }
}

/// Bit-sliced capture of `LANES`-sized claims, each sliced into
/// `FOLD_CHUNK` leaves of an exact spectral merge tree.
fn spectra_stream(plan: &Plan, t: &mut Tracer, d: &mut Digest) {
    let protocol = plan.protocol();
    let sampling = &protocol.sampling;
    for (scheme, months) in plan.cells() {
        let cell = cell_label(scheme, months);
        t.cell(cell.clone());
        let (circuit, derating) = device(plan, &protocol, t, scheme, months);
        let sim = t.span(Layer::SimSetup, || {
            Simulator::with_derating(circuit.netlist(), &protocol.sim, &derating)
        });
        let mut batch = t.span(Layer::SimSetup, || {
            sim.bitsliced_session()
                .expect("scheme netlists are bit-slice supported at every age")
        });
        let schedule = t.span(Layer::Schedule, || classified_schedule(&circuit, &protocol));

        let mut reducer: TreeReducer<SpectrumAccumulator> = TreeReducer::new();
        let mut events = 0usize;
        let mut seq = 0u64;
        for (c, claim) in schedule.chunks(LANES).enumerate() {
            let first = c * LANES;
            let session = &mut batch;
            let (traces, stats) = t.span(Layer::Capture, move || {
                let lanes: Vec<LaneStimulus<'_>> = claim
                    .iter()
                    .enumerate()
                    .map(|(j, s)| LaneStimulus {
                        initial: &s.initial,
                        final_inputs: &s.final_inputs,
                        noise_seed: trace_seed(protocol.seed, (first + j) as u64),
                    })
                    .collect();
                session.capture_batch(&lanes, sampling)
            });
            events += stats.iter().map(|s| s.events).sum::<usize>();
            t.counters.lane_batches += 1;
            t.counters.lane_slots += claim.len() as u64;
            for (k, chunk) in claim.chunks(FOLD_CHUNK).enumerate() {
                let leaf = t.span(Layer::CoreFold, || {
                    let mut acc =
                        SpectrumAccumulator::new(NUM_CLASSES, sampling.samples, plan.stream_mode());
                    for (s, trace) in chunk.iter().zip(&traces[k * FOLD_CHUNK..]) {
                        acc.fold(usize::from(s.label), trace);
                    }
                    acc
                });
                t.span(Layer::CoreMerge, || reducer.push(seq, leaf));
                seq += 1;
            }
        }
        let acc = t
            .span(Layer::CoreMerge, || reducer.finish())
            .expect("the schedule is not empty");
        t.counters.traces += schedule.len() as u64;
        t.counters.events += events as u64;
        t.counters.core_folds += schedule.len() as u64;
        t.counters.core_merges += seq - 1;

        let means = t.span(Layer::ClassMeans, || acc.class_means());
        let spectrum = t.span(Layer::Wht, || LeakageSpectrum::from_class_means(&means));
        digest_spectrum_cell(d, &cell, &spectrum, &acc.class_counts(), events);
    }
}

/// Per-budget aggregation of one distinguisher's rank across trials:
/// `(trials, trials ranking the key first, rank sum)`.
type NPoint = (usize, usize, usize);

/// Every trial of the attack plan per cell: capture, a joint fold of
/// the plaintext-class spectrum and every distinguisher's co-moments
/// per chunk, a running prefix merge with a key-rank snapshot per
/// chunk, and the merge trees.
fn attack(plan: &Plan, dir: &Path, t: &mut Tracer, d: &mut Digest) {
    let protocol = plan.protocol();
    let sampling = &protocol.sampling;
    let ap = plan.attack_plan();
    let samples = sampling.samples;
    let new_attacks = || -> Vec<AttackAccumulator> {
        ap.distinguishers
            .iter()
            .map(|&dist| AttackAccumulator::new(dist, samples, ap.mode))
            .collect()
    };
    let cache = trace_cache(dir);
    for (scheme, months) in plan.cells() {
        let cell = cell_label(scheme, months);
        t.cell(cell.clone());
        let (circuit, derating) = device(plan, &protocol, t, scheme, months);
        let sim = t.span(Layer::SimSetup, || {
            Simulator::with_derating(circuit.netlist(), &protocol.sim, &derating)
        });
        let mut session = t.span(Layer::SimSetup, || sim.session());

        let mut per_n: Vec<BTreeMap<usize, NPoint>> =
            vec![BTreeMap::new(); ap.distinguishers.len()];
        let mut finals: Vec<Vec<CpaResult>> = vec![Vec::new(); ap.distinguishers.len()];
        for trial in 0..ap.trials {
            let mut trial_protocol = protocol.clone();
            if trial > 0 {
                trial_protocol.seed = trace_seed(protocol.seed, 0xA77A_C000 | trial as u64);
            }
            let schedule = t.span(Layer::Schedule, || {
                cpa_schedule(&circuit, &trial_protocol, ap.key, ap.traces)
            });
            let base_seed = cpa_seed(&trial_protocol);
            let key = CampaignKey {
                kind: StoreKind::Cpa,
                implementation: scheme.label().to_string(),
                seed: trial_protocol.seed,
                traces: ap.traces as u32,
                samples: samples as u32,
                age_months: months,
                class_or_key: u16::from(ap.key),
                config_digest: config_digest(&trial_protocol, &plan.conditions()),
            };
            let mut checkpoint = Checkpoint::open(t, &cache, &key);

            let mut running = new_attacks();
            let mut spectrum_tree: TreeReducer<SpectrumAccumulator> = TreeReducer::new();
            let mut attack_trees: Vec<TreeReducer<AttackAccumulator>> =
                running.iter().map(|_| TreeReducer::new()).collect();
            let mut trajectory: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            let mut traces: Vec<Vec<f64>> = Vec::with_capacity(FOLD_CHUNK);
            let mut seq = 0u64;
            for (c, chunk) in schedule.chunks(FOLD_CHUNK).enumerate() {
                traces.clear();
                for (j, s) in chunk.iter().enumerate() {
                    let index = c * FOLD_CHUNK + j;
                    let (trace, stats) = t.span(Layer::Capture, || {
                        let mut rng = SmallRng::seed_from_u64(trace_seed(base_seed, index as u64));
                        let mut trace = Vec::new();
                        let stats = session.capture_into(
                            &s.initial,
                            &s.final_inputs,
                            sampling,
                            &mut rng,
                            &mut trace,
                        );
                        (trace, stats)
                    });
                    checkpoint.record(t, index, s.label, &trace);
                    traces.push(trace);
                    t.counters.events += stats.events as u64;
                }
                let spectrum_leaf = t.span(Layer::CoreFold, || {
                    let mut acc = SpectrumAccumulator::new(NUM_CLASSES, samples, ap.mode);
                    for (s, trace) in chunk.iter().zip(&traces) {
                        acc.fold(usize::from(s.label & 0xF), trace);
                    }
                    acc
                });
                let leaves = t.span(Layer::AttackFold, || {
                    let mut leaves = new_attacks();
                    for (s, trace) in chunk.iter().zip(&traces) {
                        for a in &mut leaves {
                            a.fold(s.label as u8, trace);
                        }
                    }
                    leaves
                });
                t.span(Layer::AttackMerge, || {
                    for (run, leaf) in running.iter_mut().zip(&leaves) {
                        run.merge_from(leaf);
                    }
                });
                let ranks: Vec<usize> = t.span(Layer::AttackRank, || {
                    running
                        .iter()
                        .map(|a| a.scores().key_rank(ap.key))
                        .collect()
                });
                trajectory.insert(running[0].count() as usize, ranks);
                t.span(Layer::CoreMerge, || spectrum_tree.push(seq, spectrum_leaf));
                t.span(Layer::AttackMerge, || {
                    for (tree, leaf) in attack_trees.iter_mut().zip(leaves) {
                        tree.push(seq, leaf);
                    }
                });
                seq += 1;
            }
            checkpoint.finish(t);
            let n = schedule.len() as u64;
            let k = ap.distinguishers.len() as u64;
            t.counters.traces += n;
            t.counters.core_folds += n;
            t.counters.core_merges += seq - 1;
            t.counters.attack_folds += n * k;
            t.counters.rank_evals += seq * k;

            let finished: Vec<AttackAccumulator> = t.span(Layer::AttackMerge, || {
                attack_trees
                    .into_iter()
                    .map(|tree| tree.finish().expect("the schedule is not empty"))
                    .collect()
            });
            let scores: Vec<CpaResult> = t.span(Layer::AttackRank, || {
                finished.iter().map(AttackAccumulator::scores).collect()
            });
            for (f, s) in finals.iter_mut().zip(scores) {
                f.push(s);
            }
            // The campaign reports each trial's spectral leakage too.
            let spectrum_acc = t
                .span(Layer::CoreMerge, || spectrum_tree.finish())
                .expect("the schedule is not empty");
            let means = t.span(Layer::ClassMeans, || spectrum_acc.class_means());
            let tlp = t.span(Layer::Wht, || {
                LeakageSpectrum::from_class_means(&means).total_leakage_power()
            });
            std::hint::black_box(tlp);
            for (n, ranks) in trajectory {
                for (points, rank) in per_n.iter_mut().zip(ranks) {
                    let p = points.entry(n).or_default();
                    p.0 += 1;
                    p.1 += usize::from(rank == 0);
                    p.2 += rank;
                }
            }
        }
        let reports = t.span(Layer::AttackRank, || reports(plan, per_n, finals));
        digest_attack_cell(d, &cell, &reports);
    }
}

/// The campaign's per-distinguisher evaluation: curves over budgets
/// every trial reached, MTD, and the majority-vote recovered key.
fn reports(
    plan: &Plan,
    per_n: Vec<BTreeMap<usize, NPoint>>,
    finals: Vec<Vec<CpaResult>>,
) -> Vec<DistinguisherReport> {
    let ap = plan.attack_plan();
    ap.distinguishers
        .iter()
        .zip(per_n)
        .zip(finals)
        .map(|((&distinguisher, points), final_scores)| {
            let complete: Vec<(usize, NPoint)> = points
                .into_iter()
                .filter(|(_, p)| p.0 == ap.trials)
                .collect();
            let trials = ap.trials as f64;
            let success_rate: Vec<(usize, f64)> = complete
                .iter()
                .map(|&(n, p)| (n, p.1 as f64 / trials))
                .collect();
            let guessing_entropy = complete
                .iter()
                .map(|&(n, p)| (n, p.2 as f64 / trials))
                .collect();
            let mtd = sca_attacks::measurements_to_disclosure(&success_rate, ap.sr_threshold);
            let trials_recovered = final_scores
                .iter()
                .filter(|s| s.key_rank(ap.key) == 0)
                .count();
            let mut votes = [0usize; 16];
            for s in &final_scores {
                votes[usize::from(s.best_guess() & 0xF)] += 1;
            }
            let best = votes.iter().copied().max().unwrap_or(0);
            let recovered = votes.iter().position(|&v| v == best).unwrap_or(0) as u8;
            DistinguisherReport {
                distinguisher,
                success_rate,
                guessing_entropy,
                mtd,
                recovered,
                trials_recovered,
                final_scores,
            }
        })
        .collect()
}
