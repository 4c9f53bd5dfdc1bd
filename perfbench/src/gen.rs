//! Input generation. The program only ever sees the event streams built
//! here; every random choice comes from the run's `--seed`.

use std::sync::Arc;

use pythia_apps::harness::run_app;
use pythia_apps::work::{SplitMix64, WorkScale};
use pythia_apps::{all_apps, WorkingSet};
use pythia_core::event::{EventId, EventRegistry};
use pythia_core::trace::TraceData;
use pythia_runtime_mpi::{MpiCall, MpiMode};

/// Ranks every skeleton runs on.
pub const RANKS: usize = 2;

/// Events per app stream in `app_replay` (each rank's stream is repeated
/// to this length).
pub const APP_STREAM_LEN: usize = 32_768;

/// Events of the irregular stream: long enough that the per-event append
/// cost visibly grows with the grammar (see README.md).
pub const IRREGULAR_LEN: usize = 65_536;

/// One oracle input: a registry, one recorded stream per thread, the
/// stream each thread replays in the predict phase, and which event ids
/// are decision points (blocking MPI calls).
#[derive(Clone)]
pub struct Unit {
    pub name: String,
    pub registry: EventRegistry,
    pub record: Vec<Vec<EventId>>,
    pub replay: Vec<Vec<EventId>>,
    pub blocking: Vec<bool>,
}

impl Unit {
    pub fn is_decision(&self, e: EventId) -> bool {
        self.blocking.get(e.index()).copied().unwrap_or(false)
    }
}

/// Event names at which the MPI runtime requests predictions.
fn blocking_names() -> Vec<&'static str> {
    use MpiCall::*;
    [
        Send,
        Recv,
        Isend,
        Irecv,
        Wait,
        Waitall,
        Barrier,
        Bcast,
        Reduce,
        Allreduce,
        Alltoall,
        Gather,
        Allgather,
        Scatter,
        Sendrecv,
        Scan,
        ReduceScatter,
        CommDup,
        CommSplit,
    ]
    .into_iter()
    .filter(|c| c.is_blocking_sync())
    .map(|c| c.name())
    .collect()
}

pub fn blocking_mask(registry: &EventRegistry) -> Vec<bool> {
    let names = blocking_names();
    registry
        .iter()
        .map(|(_, d)| names.contains(&d.name.as_str()))
        .collect()
}

/// Records every skeleton once (2 ranks, large working set, no compute)
/// and returns each app's trace.
fn record_apps() -> Vec<(String, TraceData)> {
    all_apps()
        .iter()
        .map(|app| {
            let run = run_app(
                app.as_ref(),
                RANKS,
                WorkingSet::Large,
                MpiMode::Record { timestamps: false },
                WorkScale::ZERO,
            );
            let trace = run.into_trace().expect("record-mode run yields a trace");
            (app.name().to_owned(), trace)
        })
        .collect()
}

/// The 13 skeletons' per-rank streams, each repeated to `len` events, in
/// a seeded order. The predict phase replays the recorded stream.
pub fn app_units(seed: u64, len: usize) -> Vec<Unit> {
    let mut units: Vec<Unit> = record_apps()
        .into_iter()
        .map(|(name, trace)| {
            let record: Vec<Vec<EventId>> = trace
                .threads()
                .iter()
                .map(|t| t.grammar.unfold().into_iter().cycle().take(len).collect())
                .collect();
            Unit {
                name,
                blocking: blocking_mask(trace.registry()),
                registry: trace.registry().clone(),
                replay: record.clone(),
                record,
            }
        })
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0xA99_5EED);
    for i in (1..units.len()).rev() {
        units.swap(i, rng.below(i as u64 + 1) as usize);
    }
    units
}

/// Shape of the irregular generator: a fixed Markov chain over short
/// motifs of MPI-like events. The chain is part of the generator; the
/// seed drives the walk.
const MOTIFS: usize = 512;
/// At each motif boundary a walk leaves the main successor with
/// probability `1 / LEAVE_MAIN` (then picks one of the others).
const LEAVE_MAIN: u64 = 16;
/// The replay takes a detour before every this-many-th motif.
const DETOUR_EVERY: u64 = 32;
const BRANCH: usize = 3;
const ALPHABET: [(&str, i64); 12] = [
    ("MPI_Isend", 4),
    ("MPI_Irecv", 4),
    ("MPI_Send", 3),
    ("MPI_Recv", 3),
    ("MPI_Wait", 1),
    ("MPI_Waitall", 1),
    ("MPI_Allreduce", 3),
    ("MPI_Barrier", 1),
    ("MPI_Bcast", 2),
    ("MPI_Reduce", 2),
    ("omp_region_begin", 8),
    ("omp_region_end", 8),
];
const CHAIN_SEED: u64 = 0x5E9_0E17_C4A1;

fn chain(registry: &mut EventRegistry) -> (Vec<Vec<EventId>>, Vec<[usize; BRANCH]>) {
    let mut alphabet = Vec::new();
    for (name, variants) in ALPHABET {
        for v in 0..variants {
            let payload = (variants > 1).then_some(v);
            alphabet.push(registry.intern(name, payload));
        }
    }
    let mut r = SplitMix64::new(CHAIN_SEED);
    let motifs = (0..MOTIFS)
        .map(|_| {
            let len = 2 + r.below(7) as usize;
            (0..len)
                .map(|_| alphabet[r.below(alphabet.len() as u64) as usize])
                .collect()
        })
        .collect();
    let succ = (0..MOTIFS)
        .map(|_| std::array::from_fn(|_| r.below(MOTIFS as u64) as usize))
        .collect();
    (motifs, succ)
}

/// One walk of the chain, as motif ids: a motif repeats 1–3 times, then
/// the walk moves to the motif's main successor, or to one of the others.
fn walk(succ: &[[usize; BRANCH]], seed: u64, steps: usize) -> Vec<usize> {
    let mut w = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(steps);
    let mut m = 0usize;
    while out.len() < steps {
        let reps = if w.below(4) == 0 { 1 + w.below(3) } else { 1 };
        for _ in 0..reps {
            out.push(m);
        }
        let k = if w.below(LEAVE_MAIN) != 0 {
            0
        } else {
            1 + w.below(BRANCH as u64 - 1) as usize
        };
        m = succ[m][k];
    }
    out
}

fn events(motifs: &[Vec<EventId>], path: &[usize], len: usize) -> Vec<EventId> {
    let mut out: Vec<EventId> = path
        .iter()
        .flat_map(|&m| motifs[m].iter().copied())
        .collect();
    assert!(out.len() >= len, "walk too short");
    out.truncate(len);
    out
}

/// A branching stream whose grammar keeps adding rules, and its replay:
/// the same walk with detours — before every [`DETOUR_EVERY`]-th motif
/// (from a seeded phase), an independently seeded generator inserts a
/// random motif, after which the replay rejoins the recorded path. The
/// fixed cadence keeps the diverging share the same for every seed.
pub fn irregular_unit(seed: u64, len: usize) -> Unit {
    let mut registry = EventRegistry::new();
    let (motifs, succ) = chain(&mut registry);
    // Motifs average 5 events: this many steps always cover `len`.
    let path = walk(&succ, seed, len / 2);
    let mut detours = SplitMix64::new(seed ^ 0xD1FF_E4E7);
    let phase = detours.below(DETOUR_EVERY) as usize;
    let mut replay_path = Vec::with_capacity(path.len() + path.len() / 8);
    for (i, &m) in path.iter().enumerate() {
        if i % DETOUR_EVERY as usize == phase {
            replay_path.push(detours.below(MOTIFS as u64) as usize);
        }
        replay_path.push(m);
    }
    Unit {
        name: "irregular".into(),
        blocking: blocking_mask(&registry),
        record: vec![events(&motifs, &path, len)],
        replay: vec![events(&motifs, &replay_path, len)],
        registry,
    }
}
/// Shares the unit's registry for journaling.
pub fn shared_registry(unit: &Unit) -> Arc<pythia_core::event::ConcurrentRegistry> {
    Arc::new(pythia_core::event::ConcurrentRegistry::from_registry(
        &unit.registry,
    ))
}
