//! Scaling bench: the sharded `zipline-engine` against the
//! single-threaded `GdCompressor::compress_batch` baseline on the 9000 B
//! stream workload (one jumbo frame's worth of sensor-style chunks — the
//! same workload as `stream_compressor_9000B` in `switch_throughput.rs`).
//!
//! Grid: 1/2/4/8 workers × 1/4/16 dictionary shards under
//! [`SpawnPolicy::Auto`]. Auto never fans a batch out; only `Threads`
//! does. So the grid's 281-chunk batch runs the fused inline pass on any
//! host: the worker axis must not move the medians, and the sharded
//! dictionary and cached basis hash carry the chunk throughput.
//!
//! Two more sets of ids, on the paper's sensor trace with 8 shards:
//! - `served_256_w4_s8/auto`: the server's batch shape (256 chunks,
//!   4 workers), the inline pass every served batch runs.
//! - `sweep_{4096,65536}_s8/{threads_w2,inline}`: two threads against the
//!   inline pass, the evidence that Auto should not fan out.
//!
//! The batch-decode group covers the symmetric `decompress_batch` path.
//! Baselines: `BENCH_PR4.json` (grid, 1 core) and `BENCH_PR14.json` (served
//! and sweep ids, 2 cores). Regenerate with
//! `BENCH_JSON=bench.jsonl cargo bench -p zipline-bench --bench engine_scaling`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use zipline_engine::{CompressionEngine, EngineConfig, EngineDecompressor, SpawnPolicy};
use zipline_gd::{GdCompressor, GdConfig, GdDecompressor};
use zipline_traces::sensor::{SensorWorkload, SensorWorkloadConfig};
use zipline_traces::ChunkWorkload;

/// One jumbo frame's worth of sensor-style chunks (matches the
/// `stream_compressor_9000B` workload of the PR-1 bench).
fn stream_9000b(config: &GdConfig) -> Vec<u8> {
    let mut data = Vec::new();
    for i in 0..(9000 / config.chunk_bytes) as u32 {
        let mut chunk = vec![0u8; config.chunk_bytes];
        chunk[0] = (i % 6) as u8;
        chunk[8] = 0xA5;
        if i % 5 == 0 {
            chunk[20] ^= 0x10; // near-duplicate noise
        }
        data.extend_from_slice(&chunk);
    }
    data
}

fn bench_engine_scaling(c: &mut Criterion) {
    let gd = GdConfig::paper_default();
    let data = stream_9000b(&gd);

    let mut group = c.benchmark_group("engine_scaling");
    group.throughput(Throughput::Bytes(data.len() as u64));

    // Baseline: the single-threaded stream compressor. The compressor lives
    // outside the measurement so after the first iteration every basis is
    // known and the loop measures steady-state (all-Ref) compression.
    let mut baseline = GdCompressor::new(&gd).unwrap();
    group.bench_function("compress_batch_baseline", |b| {
        b.iter(|| black_box(baseline.compress_batch(black_box(&data)).unwrap()))
    });

    for &workers in &[1usize, 2, 4, 8] {
        for &shards in &[1usize, 4, 16] {
            let config = EngineConfig {
                gd,
                shards,
                workers,
                spawn: SpawnPolicy::Auto,
            };
            let mut engine = CompressionEngine::new(config).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("engine_w{workers}"), format!("s{shards}")),
                &config,
                |b, _| b.iter(|| black_box(engine.compress_batch(black_box(&data)).unwrap())),
            );
        }
    }
    group.finish();
}

/// The first `chunks` chunks of the paper's sensor trace, as one batch.
fn sensor_batch(chunks: usize) -> Vec<u8> {
    SensorWorkload::new(SensorWorkloadConfig {
        chunks,
        ..SensorWorkloadConfig::paper_scale()
    })
    .chunks()
    .flatten()
    .collect()
}

/// Steady-state compression of one sensor batch on 8 shards.
fn bench_sensor_batch(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    data: &[u8],
    workers: usize,
    spawn: SpawnPolicy,
) {
    let config = EngineConfig {
        gd: GdConfig::paper_default(),
        shards: 8,
        workers,
        spawn,
    };
    let mut engine = CompressionEngine::new(config).unwrap();
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function(id, |b| {
        b.iter(|| black_box(engine.compress_batch(black_box(data)).unwrap()))
    });
}

/// The server's batch shape (256 chunks, paper config `w4`/`s8`) under
/// `Auto`, and the size sweep behind `Auto` never fanning out: two threads
/// against the inline pass.
fn bench_spawn_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling");
    let id = BenchmarkId::new("served_256_w4_s8", "auto");
    bench_sensor_batch(&mut group, id, &sensor_batch(256), 4, SpawnPolicy::Auto);
    for chunks in [4096usize, 65_536] {
        let data = sensor_batch(chunks);
        for (name, workers, spawn) in [
            ("threads_w2", 2, SpawnPolicy::Threads),
            ("inline", 1, SpawnPolicy::Inline),
        ] {
            let id = BenchmarkId::new(format!("sweep_{chunks}_s8"), name);
            bench_sensor_batch(&mut group, id, &data, workers, spawn);
        }
    }
    group.finish();
}

fn bench_batch_decode(c: &mut Criterion) {
    let gd = GdConfig::paper_default();
    let data = stream_9000b(&gd);
    let stream = GdCompressor::new(&gd)
        .unwrap()
        .compress_batch(&data)
        .unwrap();

    let mut group = c.benchmark_group("batch_decode_9000B");
    group.throughput(Throughput::Bytes(data.len() as u64));

    group.bench_function("per_record_loop", |b| {
        b.iter(|| {
            let mut dec = GdDecompressor::new(&gd).unwrap();
            let mut out = Vec::new();
            for record in &stream.records {
                out.extend_from_slice(&dec.decompress_record(record).unwrap());
            }
            black_box(out)
        })
    });

    group.bench_function("batch_scratch", |b| {
        b.iter(|| {
            let mut dec = GdDecompressor::new(&gd).unwrap();
            black_box(dec.decompress_batch(black_box(&stream)).unwrap())
        })
    });

    // The sharded engine decoder on an engine stream (8 shards).
    let config = EngineConfig {
        gd,
        shards: 8,
        workers: 4,
        spawn: SpawnPolicy::Auto,
    };
    let engine_stream = CompressionEngine::new(config)
        .unwrap()
        .compress_batch(&data)
        .unwrap();
    group.bench_function("engine_batch_s8", |b| {
        b.iter(|| {
            let mut dec = EngineDecompressor::new(config).unwrap();
            black_box(dec.decompress_batch(black_box(&engine_stream)).unwrap())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_scaling,
    bench_spawn_policy,
    bench_batch_decode
);
criterion_main!(benches);
