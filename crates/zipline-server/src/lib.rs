//! `zipline-server` — the network-facing ingest server for the ZipLine
//! reproduction, plus the closed-loop load harness that measures it.
//!
//! The paper compresses live traffic on the host/NIC path; everything below
//! this crate compresses in-process iterators. This crate puts the engine
//! behind a socket: clients stream raw records over TCP or a Unix-domain
//! socket, the server drives one pipelined engine per connection, and the
//! compressed wire payloads (with the in-band control updates that keep a
//! decoder live-synced) stream back in order.
//!
//! # Wire protocol (one paragraph)
//!
//! Both directions speak length-prefixed, CRC-tagged records — the exact
//! record discipline of the durable store's on-disk logs (`len:u32le ·
//! kind:u8+body · crc32`, CRC-32 polynomial `0x04C1_1DB7` over the
//! payload). A connection serves one stream by default: `CLIENT_HELLO`
//! (stream id + replay cursor) → `SERVER_HELLO` (resume offset +
//! replay/reseed counts) → replayed journal entries (after a crash) →
//! `DATA`* → `END` → `DONE`. Full field layouts live in [`wire`].
//!
//! # Multiplexed flows (the PR-9 layer)
//!
//! A `CLIENT_HELLO` with the multiplex flag upgrades the connection to
//! carry **many tenant-scoped flows over one socket**: `FLOW_OPEN` places a
//! flow onto its tenant's partition pool (own engine, own dictionary
//! namespace, own `tenant-<id>/stream-<id>` durable directory via the
//! `zipline-flow` router), `FLOW_DATA` routes input by flow key, and every
//! response leaves flow-tagged (`FLOW_OPENED`/`FLOW_PAYLOAD`/
//! `FLOW_CONTROL`/`FLOW_RESEED`/`FLOW_DONE`) so one client decoder pool
//! tracks the interleaved streams independently — one tenant's dictionary
//! churn never perturbs another's decoder. Per flow the byte stream is
//! bit-identical to a dedicated single-stream connection, resume included.
//!
//! # Durable resume (the PR-6 loop, closed)
//!
//! With [`ServerConfig::durable`], each stream journals under its own
//! directory. A server killed mid-stream restarts warm: the client
//! reconnects with the count of records it already received this epoch
//! (`entries_held`), the server replays the committed journal past that
//! cursor and names the input byte offset to resume from — and because
//! commits cut at whole-batch boundaries, checkpoint cadence 1 restores
//! exactly, and GD output is a pure function of `(data, shard count, batch
//! size)`, the concatenation of pre-crash and post-restart records is
//! **bit-identical** to an uninterrupted run (proven by
//! `tests/crash_restart.rs`). After a clean `DONE` the journal compacts and
//! the cursor resets; a later cold client is resynced by synthesized
//! `RESEED` installs instead of replay.
//!
//! # Backpressure and ordering
//!
//! Per connection, one reader thread feeds the engine and one writer
//! thread drains a bounded queue of pre-framed responses; ordering is total
//! (control updates precede the payloads that depend on them) and a slow
//! client backpressures the server instead of growing a buffer — the rules
//! are spelled out in [`server`]'s module docs, shutdown semantics
//! included.
//!
//! # Load harness
//!
//! [`load`] drives N concurrent closed-loop connections from any
//! `zipline-traces` workload (sensor, DNS, churn, Zipf flow mix) and
//! reports throughput plus p50/p99/p999 record latency from a mergeable
//! log-linear histogram ([`histogram`]). The `zipline-load` binary wraps it
//! for the command line; `zipline-serverd` runs the standalone server.

pub mod client;
pub mod error;
pub mod histogram;
pub mod load;
mod net;
pub mod server;
pub mod wire;

pub use client::{ClientSession, ServerEvent};
pub use error::{ServerError, ServerResult};
pub use histogram::LatencyHistogram;
pub use load::{run_closed_loop, run_multiplexed, LoadConfig, LoadReport, TenantLine};
pub use net::Endpoint;
pub use server::{
    stream_dir, BackendChoice, ServerConfig, ServerConfigBuilder, ServerHandle, ServerReport,
    StatsSnapshot, DEFAULT_WRITER_DEPTH,
};
pub use wire::{
    ClientHello, DoneSummary, Record, RecordReader, ServerHello, WireCodec, WireError,
    MAX_WIRE_RECORD_BYTES, MIN_WIRE_VERSION, WIRE_VERSION,
};
pub use zipline_flow::{FlowDecoderPool, FlowKey};
