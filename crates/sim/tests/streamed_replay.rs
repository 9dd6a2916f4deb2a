//! A [`Replay`] fed a trace in pieces must land exactly where
//! [`Simulator::run_compact`] does on the whole trace: the streamed board
//! measurement and the latency probes rely on it.

use racesim_isa::EncodedInst;
use racesim_kernels::{microbench_suite, probes, Scale, Workload};
use racesim_sim::{Platform, SimError, SimStats, Simulator};
use racesim_trace::{CompactTrace, TraceRecord, TraceSink};

/// Piece sizes: one record at a time, an odd size that splits every
/// loop body, a size near the simulator's own replay chunk.
const CHUNKS: [usize; 3] = [1, 7, 4096];

/// Replays `records` through a fresh [`Replay`], `chunk` records a
/// piece, clearing one recording trace between pieces as the board does.
fn feed_in_chunks(
    sim: &Simulator,
    records: impl Iterator<Item = TraceRecord>,
    chunk: usize,
) -> Result<SimStats, SimError> {
    let mut replay = sim.replay();
    let mut piece = CompactTrace::new();
    for r in records {
        piece.push(r)?;
        if piece.len() == chunk {
            replay.feed(&piece)?;
            piece.clear_records();
        }
    }
    replay.feed(&piece)?;
    Ok(replay.finish())
}

/// The three footprints the latency estimator probes.
fn probes() -> Vec<Workload> {
    [8, 128, 4096]
        .into_iter()
        .map(|kb| probes::lat_mem_rd(kb, 64))
        .collect()
}

#[test]
fn chunked_feeds_match_run_compact_on_every_kernel_and_probe() {
    let mut workloads = microbench_suite(Scale::TINY);
    workloads.extend(probes());
    for platform in [Platform::a53_like(), Platform::a72_like()] {
        let sim = Simulator::new(platform);
        for w in &workloads {
            let trace = w.compact_trace().unwrap();
            let whole = sim.run_compact(&trace).unwrap();
            let mut fed_whole = sim.replay();
            fed_whole.feed(&trace).unwrap();
            assert_eq!(fed_whole.finish(), whole, "{} fed whole", w.name);
            for chunk in CHUNKS {
                let mut replay = sim.replay();
                w.record_chunks(chunk, &mut |piece| {
                    assert!(piece.len() <= chunk);
                    replay.feed(piece).map_err(std::io::Error::other)
                })
                .unwrap();
                let streamed = replay.finish();
                assert_eq!(streamed.core, whole.core, "{} in {chunk}s: core", w.name);
                assert_eq!(streamed.mem, whole.mem, "{} in {chunk}s: mem", w.name);
            }
        }
    }
}

#[test]
fn chunked_feeds_fail_at_the_pc_run_compact_fails_at() {
    // Valid words, then an undecodable word, then a second undecodable
    // word before the first recurs at another pc.
    let bad = EncodedInst(0xfe);
    let w = probes::lat_mem_rd(8, 64);
    let mut records: Vec<TraceRecord> = w.trace().unwrap().iter().copied().take(50).collect();
    records.push(TraceRecord::plain(0xdead0, bad));
    records.extend(w.trace().unwrap().iter().copied().take(20));
    records.push(TraceRecord::plain(0xbeef0, EncodedInst(0xfd)));
    records.push(TraceRecord::plain(0xbeef4, bad));
    for platform in [Platform::a53_like(), Platform::a72_like()] {
        let sim = Simulator::new(platform);
        let err = sim.run_records(&records).unwrap_err();
        assert!(matches!(err, SimError::Decode { pc: 0xdead0, .. }), "{err}");
        for chunk in CHUNKS.into_iter().chain([records.len()]) {
            let streamed = feed_in_chunks(&sim, records.iter().copied(), chunk).unwrap_err();
            assert_eq!(streamed, err, "in chunks of {chunk}");
        }
    }
}
