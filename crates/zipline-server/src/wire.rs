//! Framed wire protocol for the ZipLine ingest server.
//!
//! The framing reuses the record discipline of the durable store
//! (`zipline-engine`'s `persist.rs`): every record on the socket is
//!
//! ```text
//! record  := len:u32le payload crc:u32le
//! payload := kind:u8 body
//! ```
//!
//! where `len` counts the payload bytes (kind byte included) and `crc` is a
//! CRC-32 (polynomial `0x04C1_1DB7`) over the payload. A reader therefore
//! needs no protocol state to reframe a byte stream: it reads `len`, takes
//! that many payload bytes, and verifies the trailing CRC. Anything that does
//! not parse — a zero or oversized length, a short read, a CRC mismatch, an
//! unknown kind — is a loud [`WireError`]; the codec never panics on foreign
//! bytes and never silently accepts a damaged frame.
//!
//! # Record kinds
//!
//! Client → server:
//!
//! | kind   | record                                            |
//! |--------|---------------------------------------------------|
//! | `0x41` | [`ClientHello`] — magic `ZLRQ`, version, stream id, replay cursor, multiplex flag |
//! | `0x42` | `Data` — raw input record bytes for the engine    |
//! | `0x43` | `End` — clean end of stream (drain + commit)      |
//! | `0x44` | `FlowOpen` — open one flow on a multiplexed connection (key + replay cursor) |
//! | `0x45` | `FlowData` — raw input record bytes for one flow  |
//! | `0x46` | `FlowEnd` — clean end of one flow                 |
//!
//! Server → client:
//!
//! | kind   | record                                            |
//! |--------|---------------------------------------------------|
//! | `0x51` | [`ServerHello`] — magic `ZLRS`, resume offset, replay/reseed counts |
//! | `0x52` | `Payload` — one wire payload (`packet_type` + bytes) |
//! | `0x53` | `Control` — one committed dictionary update (live sync) |
//! | `0x54` | `Done` — stream summary, closes the journal epoch |
//! | `0x55` | `Error` — typed failure, connection closes after  |
//! | `0x56` | `Reseed` — synthesized dictionary install for a compacted journal (advisory; not part of the replay cursor) |
//! | `0x57` | `FlowOpened` — per-flow resume plan (the flow's `ServerHello`) |
//! | `0x58` | `FlowPayload` — one wire payload of one flow      |
//! | `0x59` | `FlowControl` — one committed dictionary update of one flow |
//! | `0x5A` | `FlowReseed` — synthesized install of one flow (compacted journal) |
//! | `0x5B` | `FlowDone` — one flow's summary, closes its journal epoch |
//! | `0x5C` | `PayloadTagged` — one wire payload with a per-batch codec tag (`codec_id` + `packet_type` + bytes) |
//! | `0x5D` | `FlowPayloadTagged` — one tagged wire payload of one flow |
//!
//! The `Flow*` kinds (wire version 2) multiplex many flows over one
//! connection: each carries a [`FlowKey`] tag ahead of the same body its
//! single-stream counterpart uses, so per flow the record sequence — and
//! in particular the controls-strictly-before-data interleaving — is
//! exactly the single-stream protocol's.
//!
//! The `*Tagged` kinds (wire version 3) make the stream self-describing:
//! a routing backend (`AutoBackend`) stamps every batch's payloads with
//! the [`CodecId`] that actually compressed them, so a decoder pool picks
//! the right decompressor from the tag alone. Untagged `Payload`/
//! `FlowPayload` records stay valid and mean "the stream's fixed
//! backend" — a v2 peer therefore keeps decoding fixed-backend streams
//! unchanged. Version 3 hellos additionally advertise the codec ids each
//! side supports; a v2 hello is answered with a v2-shaped reply and an
//! empty codec set. A tag byte no registry entry covers is the typed
//! [`WireError::UnknownCodec`].
//!
//! The body encodings for dictionary updates mirror the store's
//! `put_update`/`read_update` byte-for-byte so a journal replay is a straight
//! re-framing of [`zipline_engine::CommittedEntry`] values, no re-encoding.

use std::fmt;
use std::io::{self, Read};

use zipline_engine::{codec_from_u8, CodecId, DictionaryUpdate, FlowKey, UpdateOp};
use zipline_gd::packet::PacketType;
use zipline_gd::{BitVec, CrcEngine, CrcSpec};

/// Wire protocol version spoken by this crate. Version 2 added the
/// multiplex flag to [`ClientHello`] and the flow-tagged record kinds;
/// version 3 added per-batch codec tags (`PayloadTagged`/
/// `FlowPayloadTagged`) and the hello codec-set advertisement. Version-2
/// peers are still accepted (they negotiate an untagged, fixed-backend
/// stream); version-1 peers are rejected with a typed `ERROR` record.
pub const WIRE_VERSION: u16 = 3;

/// Oldest wire version this crate still speaks.
pub const MIN_WIRE_VERSION: u16 = 2;

/// Upper bound on a single record's payload bytes; anything larger is
/// rejected before buffering (a 4-byte length field must not become a
/// memory-exhaustion lever).
pub const MAX_WIRE_RECORD_BYTES: usize = 1 << 24;

/// Magic prefix of a [`ClientHello`] body.
pub const REQUEST_MAGIC: [u8; 4] = *b"ZLRQ";
/// Magic prefix of a [`ServerHello`] body.
pub const RESPONSE_MAGIC: [u8; 4] = *b"ZLRS";

const KIND_CLIENT_HELLO: u8 = 0x41;
const KIND_DATA: u8 = 0x42;
const KIND_END: u8 = 0x43;
const KIND_FLOW_OPEN: u8 = 0x44;
const KIND_FLOW_DATA: u8 = 0x45;
const KIND_FLOW_END: u8 = 0x46;
const KIND_SERVER_HELLO: u8 = 0x51;
const KIND_PAYLOAD: u8 = 0x52;
const KIND_CONTROL: u8 = 0x53;
const KIND_DONE: u8 = 0x54;
const KIND_ERROR: u8 = 0x55;
const KIND_RESEED: u8 = 0x56;
const KIND_FLOW_OPENED: u8 = 0x57;
const KIND_FLOW_PAYLOAD: u8 = 0x58;
const KIND_FLOW_CONTROL: u8 = 0x59;
const KIND_FLOW_RESEED: u8 = 0x5A;
const KIND_FLOW_DONE: u8 = 0x5B;
const KIND_PAYLOAD_TAGGED: u8 = 0x5C;
const KIND_FLOW_PAYLOAD_TAGGED: u8 = 0x5D;

/// Decoding failure; every variant is terminal for the connection.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// Underlying socket/file error while reading.
    Io(io::Error),
    /// The stream ended inside a record (after at least one framing byte).
    Truncated,
    /// Declared payload length is zero or exceeds [`MAX_WIRE_RECORD_BYTES`].
    OversizedRecord(usize),
    /// Trailing CRC does not match the payload.
    BadCrc,
    /// A hello record carried the wrong magic.
    BadMagic,
    /// A hello record spoke a protocol version we do not.
    UnsupportedVersion(u16),
    /// Correctly framed record with a kind byte we do not know.
    UnknownKind(u8),
    /// A tagged payload named a codec id no registry entry covers.
    UnknownCodec(u8),
    /// The body of a known kind did not parse.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Truncated => write!(f, "stream truncated inside a record"),
            WireError::OversizedRecord(len) => write!(
                f,
                "record payload of {len} bytes outside (0, {MAX_WIRE_RECORD_BYTES}]"
            ),
            WireError::BadCrc => write!(f, "record CRC mismatch"),
            WireError::BadMagic => write!(f, "hello record carries the wrong magic"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown record kind {k:#04x}"),
            WireError::UnknownCodec(id) => {
                write!(f, "tagged payload names unknown codec id {id}")
            }
            WireError::Malformed(what) => write!(f, "malformed record body: {what}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// First record on every connection, client → server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// The wire version the client speaks. Encoding is version-shaped:
    /// a `version <= 2` hello keeps the exact v2 body (no codec set), so
    /// old servers parse it cleanly.
    pub version: u16,
    /// Caller-chosen stream identifier; doubles as the durable directory key,
    /// so reconnecting with the same id resumes the same journal.
    pub stream_id: u64,
    /// Replay cursor: payload + control records the client has received since
    /// the stream's last `Done` (i.e. within the current journal epoch).
    pub entries_held: u64,
    /// Wire version 2: when set the connection is multiplexed — the
    /// `stream_id`/`entries_held` fields are ignored and flows open
    /// individually via `FlowOpen` records.
    pub multiplex: bool,
    /// Wire version 3: codec ids the client can decode. Empty means
    /// "unstated" (v2 peer, or a client that accepts anything its
    /// registry covers); a non-empty set lets the server refuse a stream
    /// whose backend would emit tags the client cannot decode.
    pub codecs: Vec<CodecId>,
}

impl ClientHello {
    /// A current-version hello for stream `stream_id` with replay cursor
    /// `entries_held` and an unstated (empty) codec set.
    pub fn new(stream_id: u64, entries_held: u64) -> Self {
        Self {
            version: WIRE_VERSION,
            stream_id,
            entries_held,
            multiplex: false,
            codecs: Vec::new(),
        }
    }
}

/// First record on every connection, server → client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// The wire version the reply speaks: the minimum of the server's own
    /// and the client's, so a v2 client gets a v2-shaped reply it can
    /// parse (no codec set).
    pub version: u16,
    /// Input byte offset the client must resume feeding from after the
    /// replayed records (always a commit-boundary, i.e. a batch multiple).
    pub resume_bytes_in: u64,
    /// Committed records about to be replayed from the journal.
    pub replay_entries: u64,
    /// Synthesized `Reseed` installs about to follow (compacted journal).
    pub reseed_entries: u64,
    /// Whether the stream restored warm state from a durable store.
    pub warm: bool,
    /// Wire version 3: codec ids the serving backend may stamp on this
    /// stream's payloads (empty for a fixed, untagged backend).
    pub codecs: Vec<CodecId>,
}

/// Final record of a clean stream, server → client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoneSummary {
    /// Record bytes the engine consumed.
    pub bytes_in: u64,
    /// Wire payloads emitted.
    pub payloads_emitted: u64,
    /// Total wire bytes emitted.
    pub wire_bytes: u64,
    /// Payloads emitted in compressed (type 3) form.
    pub compressed_payloads: u64,
    /// Dictionary updates streamed to the client.
    pub control_updates: u64,
    /// True when the server (graceful shutdown) rather than the client's
    /// `End` record ended the stream.
    pub server_initiated: bool,
}

/// One wire record, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// `0x41`: connection opener, client → server.
    ClientHello(ClientHello),
    /// `0x42`: raw input record bytes for the engine.
    Data(Vec<u8>),
    /// `0x43`: clean end of stream.
    End,
    /// `0x44`: opens one flow on a multiplexed connection; `entries_held`
    /// is the flow's replay cursor, exactly as on a [`ClientHello`].
    FlowOpen {
        /// The flow being opened.
        key: FlowKey,
        /// The flow's replay cursor.
        entries_held: u64,
    },
    /// `0x45`: raw input record bytes for one flow.
    FlowData {
        /// The owning flow.
        key: FlowKey,
        /// The record bytes.
        bytes: Vec<u8>,
    },
    /// `0x46`: clean end of one flow (drain + commit, `FlowDone` follows).
    FlowEnd {
        /// The flow being ended.
        key: FlowKey,
    },
    /// `0x51`: connection opener, server → client.
    ServerHello(ServerHello),
    /// `0x52` untagged / `0x5C` tagged: one compressed/uncompressed/raw
    /// wire payload.
    Payload {
        /// ZipLine packet type of the payload.
        packet_type: PacketType,
        /// Per-batch codec tag (`Some` encodes as `0x5C`); `None` means
        /// the stream's fixed backend and encodes as plain `0x52`.
        codec: Option<CodecId>,
        /// Payload bytes exactly as the backend emitted them.
        bytes: Vec<u8>,
    },
    /// `0x53`: one committed dictionary update (live sync).
    Control(DictionaryUpdate),
    /// `0x56`: synthesized dictionary install replacing a compacted journal.
    Reseed(DictionaryUpdate),
    /// `0x54`: stream summary; closes the journal epoch.
    Done(DoneSummary),
    /// `0x55`: typed failure; the connection closes after this record.
    Error(String),
    /// `0x57`: per-flow resume plan — the flow's [`ServerHello`], tagged.
    FlowOpened {
        /// The opened flow.
        key: FlowKey,
        /// The flow's resume plan (same fields as a connection hello).
        resume: ServerHello,
    },
    /// `0x58` untagged / `0x5D` tagged: one wire payload of one flow.
    FlowPayload {
        /// The owning flow.
        key: FlowKey,
        /// ZipLine packet type of the payload.
        packet_type: PacketType,
        /// Per-batch codec tag (`Some` encodes as `0x5D`); `None` means
        /// the flow's fixed backend and encodes as plain `0x58`.
        codec: Option<CodecId>,
        /// Payload bytes exactly as the backend emitted them.
        bytes: Vec<u8>,
    },
    /// `0x59`: one committed dictionary update of one flow (live sync).
    FlowControl {
        /// The owning flow.
        key: FlowKey,
        /// The tagged update.
        update: DictionaryUpdate,
    },
    /// `0x5A`: synthesized install of one flow (compacted journal).
    FlowReseed {
        /// The owning flow.
        key: FlowKey,
        /// The synthesized update.
        update: DictionaryUpdate,
    },
    /// `0x5B`: one flow's summary; closes the flow's journal epoch.
    FlowDone {
        /// The finished flow.
        key: FlowKey,
        /// The flow's stream totals.
        summary: DoneSummary,
    },
}

impl Record {
    /// Short human tag for protocol errors.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Record::ClientHello(_) => "CLIENT_HELLO",
            Record::Data(_) => "DATA",
            Record::End => "END",
            Record::ServerHello(_) => "SERVER_HELLO",
            Record::Payload { codec: Some(_), .. } => "PAYLOAD_TAGGED",
            Record::Payload { .. } => "PAYLOAD",
            Record::Control(_) => "CONTROL",
            Record::Reseed(_) => "RESEED",
            Record::Done(_) => "DONE",
            Record::Error(_) => "ERROR",
            Record::FlowOpen { .. } => "FLOW_OPEN",
            Record::FlowData { .. } => "FLOW_DATA",
            Record::FlowEnd { .. } => "FLOW_END",
            Record::FlowOpened { .. } => "FLOW_OPENED",
            Record::FlowPayload { codec: Some(_), .. } => "FLOW_PAYLOAD_TAGGED",
            Record::FlowPayload { .. } => "FLOW_PAYLOAD",
            Record::FlowControl { .. } => "FLOW_CONTROL",
            Record::FlowReseed { .. } => "FLOW_RESEED",
            Record::FlowDone { .. } => "FLOW_DONE",
        }
    }
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bitvec(buf: &mut Vec<u8>, bits: &BitVec) {
    put_u32(buf, bits.len() as u32);
    buf.extend_from_slice(&bits.to_bytes());
}

fn put_flow_key(buf: &mut Vec<u8>, key: FlowKey) {
    put_u64(buf, key.tenant);
    put_u64(buf, key.flow);
}

/// Appends a hello's codec-set suffix — only on v3+ bodies, so a v2 hello
/// keeps its exact historical shape.
fn put_codec_set(buf: &mut Vec<u8>, version: u16, codecs: &[CodecId]) {
    if version >= 3 {
        debug_assert!(codecs.len() <= u8::MAX as usize, "codec set too large");
        buf.push(codecs.len() as u8);
        for id in codecs {
            buf.push(id.as_u8());
        }
    }
}

/// Serializes a dictionary update exactly like the store's `put_update`.
pub(crate) fn put_update(buf: &mut Vec<u8>, update: &DictionaryUpdate) {
    put_u64(buf, update.seq);
    put_u64(buf, update.at);
    match &update.op {
        UpdateOp::Install { id, basis } => {
            buf.push(0);
            put_u64(buf, *id);
            put_bitvec(buf, basis);
        }
        UpdateOp::Remove { id } => {
            buf.push(1);
            put_u64(buf, *id);
        }
    }
}

/// Bounded reader over one record body; every shortfall is a loud
/// [`WireError::Malformed`] naming the record being parsed.
struct BodyReader<'a> {
    data: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> BodyReader<'a> {
    fn new(data: &'a [u8], what: &'static str) -> Self {
        Self { data, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.data.len());
        let Some(end) = end else {
            return Err(WireError::Malformed(format!(
                "{}: body shorter than declared",
                self.what
            )));
        };
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Takes exactly `N` bytes as a fixed-size array. The length always
    /// matches because `take` returned exactly `N` bytes, so the slice
    /// pattern is irrefutable — no fallible conversion anywhere.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.array()?;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn bitvec(&mut self) -> Result<BitVec, WireError> {
        let bit_len = self.u32()? as usize;
        let bytes = self.take(bit_len.div_ceil(8))?;
        let mut bits = BitVec::from_bytes(bytes);
        bits.truncate(bit_len);
        Ok(bits)
    }

    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.data[self.pos..];
        self.pos = self.data.len();
        slice
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{}: trailing bytes in body",
                self.what
            )))
        }
    }
}

fn read_flow_key(r: &mut BodyReader<'_>) -> Result<FlowKey, WireError> {
    Ok(FlowKey {
        tenant: r.u64()?,
        flow: r.u64()?,
    })
}

/// Reads a hello's codec-set suffix (absent before v3). Advertised ids
/// are carried verbatim — an id this build does not know is fine in an
/// *advertisement* (set intersection handles it); only a payload *tag*
/// must resolve, which `codec_from_u8` enforces at the tagged-payload
/// parse sites.
fn read_codec_set(r: &mut BodyReader<'_>, version: u16) -> Result<Vec<CodecId>, WireError> {
    if version < 3 {
        return Ok(Vec::new());
    }
    let n = r.u8()? as usize;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(CodecId(r.u8()?));
    }
    Ok(ids)
}

fn read_update(r: &mut BodyReader<'_>) -> Result<DictionaryUpdate, WireError> {
    let seq = r.u64()?;
    let at = r.u64()?;
    let op = match r.u8()? {
        0 => UpdateOp::Install {
            id: r.u64()?,
            basis: r.bitvec()?,
        },
        1 => UpdateOp::Remove { id: r.u64()? },
        other => {
            return Err(WireError::Malformed(format!(
                "{}: unknown update op {other}",
                r.what
            )))
        }
    };
    Ok(DictionaryUpdate { seq, at, op })
}

/// Little-endian `u32` starting at byte `at`; `None` when `buf` is too
/// short — length checks and extraction in one step, no indexing.
fn read_le_u32(buf: &[u8], at: usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    let bytes: [u8; 4] = buf.get(at..end)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

fn packet_type_from(code: u8) -> Result<PacketType, WireError> {
    match code {
        1 => Ok(PacketType::Raw),
        2 => Ok(PacketType::Uncompressed),
        3 => Ok(PacketType::Compressed),
        other => Err(WireError::Malformed(format!("unknown packet type {other}"))),
    }
}

/// Stateless encoder/decoder for wire [`Record`]s.
///
/// Holds the CRC engine and a scratch buffer so framing does not allocate
/// per record beyond the payload itself.
pub struct WireCodec {
    crc: CrcEngine,
    scratch: Vec<u8>,
}

impl Default for WireCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl WireCodec {
    /// Creates a codec (CRC-32, polynomial `0x04C1_1DB7`).
    pub fn new() -> Self {
        Self {
            // zipline-lint: allow(L001): CRC-32 spec parameters are compile-time constants; construction cannot fail
            crc: CrcEngine::new(CrcSpec::new(32, 0x04C1_1DB7).expect("CRC-32 spec is valid")),
            scratch: Vec::new(),
        }
    }

    /// Appends the framed encoding of `record` to `out`.
    pub fn encode_into(&mut self, record: &Record, out: &mut Vec<u8>) {
        self.scratch.clear();
        let body = &mut self.scratch;
        match record {
            Record::ClientHello(h) => {
                body.push(KIND_CLIENT_HELLO);
                body.extend_from_slice(&REQUEST_MAGIC);
                put_u16(body, h.version);
                put_u64(body, h.stream_id);
                put_u64(body, h.entries_held);
                body.push(u8::from(h.multiplex));
                put_codec_set(body, h.version, &h.codecs);
            }
            Record::Data(bytes) => {
                body.push(KIND_DATA);
                body.extend_from_slice(bytes);
            }
            Record::End => body.push(KIND_END),
            Record::FlowOpen { key, entries_held } => {
                body.push(KIND_FLOW_OPEN);
                put_flow_key(body, *key);
                put_u64(body, *entries_held);
            }
            Record::FlowData { key, bytes } => {
                body.push(KIND_FLOW_DATA);
                put_flow_key(body, *key);
                body.extend_from_slice(bytes);
            }
            Record::FlowEnd { key } => {
                body.push(KIND_FLOW_END);
                put_flow_key(body, *key);
            }
            Record::ServerHello(h) => {
                body.push(KIND_SERVER_HELLO);
                body.extend_from_slice(&RESPONSE_MAGIC);
                put_u16(body, h.version);
                put_u64(body, h.resume_bytes_in);
                put_u64(body, h.replay_entries);
                put_u64(body, h.reseed_entries);
                body.push(u8::from(h.warm));
                put_codec_set(body, h.version, &h.codecs);
            }
            Record::Payload {
                packet_type,
                codec,
                bytes,
            } => {
                match codec {
                    Some(id) => {
                        body.push(KIND_PAYLOAD_TAGGED);
                        body.push(id.as_u8());
                    }
                    None => body.push(KIND_PAYLOAD),
                }
                body.push(packet_type.number());
                put_u32(body, bytes.len() as u32);
                body.extend_from_slice(bytes);
            }
            Record::Control(update) => {
                body.push(KIND_CONTROL);
                put_update(body, update);
            }
            Record::Reseed(update) => {
                body.push(KIND_RESEED);
                put_update(body, update);
            }
            Record::Done(d) => {
                body.push(KIND_DONE);
                put_u64(body, d.bytes_in);
                put_u64(body, d.payloads_emitted);
                put_u64(body, d.wire_bytes);
                put_u64(body, d.compressed_payloads);
                put_u64(body, d.control_updates);
                body.push(u8::from(d.server_initiated));
            }
            Record::Error(message) => {
                body.push(KIND_ERROR);
                body.extend_from_slice(message.as_bytes());
            }
            Record::FlowOpened { key, resume } => {
                body.push(KIND_FLOW_OPENED);
                put_flow_key(body, *key);
                put_u64(body, resume.resume_bytes_in);
                put_u64(body, resume.replay_entries);
                put_u64(body, resume.reseed_entries);
                body.push(u8::from(resume.warm));
            }
            Record::FlowPayload {
                key,
                packet_type,
                codec,
                bytes,
            } => {
                match codec {
                    Some(id) => {
                        body.push(KIND_FLOW_PAYLOAD_TAGGED);
                        put_flow_key(body, *key);
                        body.push(id.as_u8());
                    }
                    None => {
                        body.push(KIND_FLOW_PAYLOAD);
                        put_flow_key(body, *key);
                    }
                }
                body.push(packet_type.number());
                put_u32(body, bytes.len() as u32);
                body.extend_from_slice(bytes);
            }
            Record::FlowControl { key, update } => {
                body.push(KIND_FLOW_CONTROL);
                put_flow_key(body, *key);
                put_update(body, update);
            }
            Record::FlowReseed { key, update } => {
                body.push(KIND_FLOW_RESEED);
                put_flow_key(body, *key);
                put_update(body, update);
            }
            Record::FlowDone { key, summary } => {
                body.push(KIND_FLOW_DONE);
                put_flow_key(body, *key);
                put_u64(body, summary.bytes_in);
                put_u64(body, summary.payloads_emitted);
                put_u64(body, summary.wire_bytes);
                put_u64(body, summary.compressed_payloads);
                put_u64(body, summary.control_updates);
                body.push(u8::from(summary.server_initiated));
            }
        }
        debug_assert!(!body.is_empty() && body.len() <= MAX_WIRE_RECORD_BYTES);
        self.seal_into(out);
    }

    /// Frames `record` into a fresh buffer.
    pub fn encode(&mut self, record: &Record) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(record, &mut out);
        out
    }

    /// Frames a `Payload` record straight from a borrowed byte slice (the
    /// hot path — avoids the intermediate `Record::Payload` copy). `codec`
    /// is the per-batch tag: `Some` frames the tagged `0x5C` kind, `None`
    /// the plain `0x52`.
    pub fn encode_payload(
        &mut self,
        codec: Option<CodecId>,
        packet_type: PacketType,
        bytes: &[u8],
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(bytes.len() + 16);
        self.encode_payload_into(codec, packet_type, bytes, &mut out);
        out
    }

    /// [`encode_payload`](Self::encode_payload), appending the frame to
    /// `out` instead of a fresh buffer.
    pub fn encode_payload_into(
        &mut self,
        codec: Option<CodecId>,
        packet_type: PacketType,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) {
        self.scratch.clear();
        let body = &mut self.scratch;
        match codec {
            Some(id) => {
                body.push(KIND_PAYLOAD_TAGGED);
                body.push(id.as_u8());
            }
            None => body.push(KIND_PAYLOAD),
        }
        body.push(packet_type.number());
        put_u32(body, bytes.len() as u32);
        body.extend_from_slice(bytes);
        self.seal_into(out);
    }

    /// Frames a `Data` record straight from a borrowed byte slice.
    pub fn encode_data(&mut self, bytes: &[u8]) -> Vec<u8> {
        self.scratch.clear();
        self.scratch.push(KIND_DATA);
        self.scratch.extend_from_slice(bytes);
        self.seal()
    }

    /// Frames a `Control` record straight from a borrowed update.
    pub fn encode_control(&mut self, update: &DictionaryUpdate) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_control_into(update, &mut out);
        out
    }

    /// [`encode_control`](Self::encode_control), appending the frame to
    /// `out` instead of a fresh buffer.
    pub fn encode_control_into(&mut self, update: &DictionaryUpdate, out: &mut Vec<u8>) {
        self.scratch.clear();
        self.scratch.push(KIND_CONTROL);
        put_update(&mut self.scratch, update);
        self.seal_into(out);
    }

    /// Frames a `FlowPayload` record straight from a borrowed byte slice
    /// (the multiplexed hot path). `codec` is the per-batch tag: `Some`
    /// frames the tagged `0x5D` kind, `None` the plain `0x58`.
    pub fn encode_flow_payload(
        &mut self,
        key: FlowKey,
        codec: Option<CodecId>,
        packet_type: PacketType,
        bytes: &[u8],
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(bytes.len() + 32);
        self.encode_flow_payload_into(key, codec, packet_type, bytes, &mut out);
        out
    }

    /// [`encode_flow_payload`](Self::encode_flow_payload), appending the
    /// frame to `out` instead of a fresh buffer.
    pub fn encode_flow_payload_into(
        &mut self,
        key: FlowKey,
        codec: Option<CodecId>,
        packet_type: PacketType,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) {
        self.scratch.clear();
        let body = &mut self.scratch;
        match codec {
            Some(id) => {
                body.push(KIND_FLOW_PAYLOAD_TAGGED);
                put_flow_key(body, key);
                body.push(id.as_u8());
            }
            None => {
                body.push(KIND_FLOW_PAYLOAD);
                put_flow_key(body, key);
            }
        }
        body.push(packet_type.number());
        put_u32(body, bytes.len() as u32);
        body.extend_from_slice(bytes);
        self.seal_into(out);
    }

    /// Frames a `FlowControl` record straight from a borrowed update.
    pub fn encode_flow_control(&mut self, key: FlowKey, update: &DictionaryUpdate) -> Vec<u8> {
        let mut out = Vec::with_capacity(80);
        self.encode_flow_control_into(key, update, &mut out);
        out
    }

    /// [`encode_flow_control`](Self::encode_flow_control), appending the
    /// frame to `out` instead of a fresh buffer.
    pub fn encode_flow_control_into(
        &mut self,
        key: FlowKey,
        update: &DictionaryUpdate,
        out: &mut Vec<u8>,
    ) {
        self.scratch.clear();
        self.scratch.push(KIND_FLOW_CONTROL);
        put_flow_key(&mut self.scratch, key);
        put_update(&mut self.scratch, update);
        self.seal_into(out);
    }

    /// Frames a `FlowData` record straight from a borrowed byte slice.
    pub fn encode_flow_data(&mut self, key: FlowKey, bytes: &[u8]) -> Vec<u8> {
        self.scratch.clear();
        self.scratch.push(KIND_FLOW_DATA);
        put_flow_key(&mut self.scratch, key);
        self.scratch.extend_from_slice(bytes);
        self.seal()
    }

    /// Frames whatever `scratch` currently holds as one record.
    fn seal(&mut self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.scratch.len() + 8);
        self.seal_into(&mut out);
        out
    }

    /// Appends whatever `scratch` currently holds to `out` as one record.
    fn seal_into(&mut self, out: &mut Vec<u8>) {
        let body = &self.scratch;
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
        let crc = self.crc.compute_bytes(body) as u32;
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Attempts to decode one record from the front of `buf`.
    ///
    /// Returns `Ok(None)` when `buf` holds only a prefix of a record (more
    /// bytes needed), `Ok(Some((record, consumed)))` on success, and a
    /// [`WireError`] for anything that can never become a valid record no
    /// matter how many bytes follow.
    pub fn decode(&self, buf: &[u8]) -> Result<Option<(Record, usize)>, WireError> {
        let Some(len) = read_le_u32(buf, 0) else {
            return Ok(None);
        };
        let len = len as usize;
        if len == 0 || len > MAX_WIRE_RECORD_BYTES {
            return Err(WireError::OversizedRecord(len));
        }
        let total = 4 + len + 4;
        if buf.len() < total {
            return Ok(None);
        }
        let payload = &buf[4..4 + len];
        let Some(stored) = read_le_u32(buf, 4 + len) else {
            return Ok(None);
        };
        let computed = self.crc.compute_bytes(payload) as u32;
        if stored != computed {
            return Err(WireError::BadCrc);
        }
        let record = Self::parse_payload(payload)?;
        Ok(Some((record, total)))
    }

    fn parse_payload(payload: &[u8]) -> Result<Record, WireError> {
        let Some((&kind, body)) = payload.split_first() else {
            return Err(WireError::Malformed("empty payload".to_string()));
        };
        match kind {
            KIND_CLIENT_HELLO => {
                let mut r = BodyReader::new(body, "CLIENT_HELLO");
                if r.take(4)? != REQUEST_MAGIC {
                    return Err(WireError::BadMagic);
                }
                let version = r.u16()?;
                if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
                    return Err(WireError::UnsupportedVersion(version));
                }
                let stream_id = r.u64()?;
                let entries_held = r.u64()?;
                let multiplex = r.u8()? != 0;
                let codecs = read_codec_set(&mut r, version)?;
                r.finish()?;
                Ok(Record::ClientHello(ClientHello {
                    version,
                    stream_id,
                    entries_held,
                    multiplex,
                    codecs,
                }))
            }
            KIND_DATA => Ok(Record::Data(body.to_vec())),
            KIND_END => {
                BodyReader::new(body, "END").finish()?;
                Ok(Record::End)
            }
            KIND_FLOW_OPEN => {
                let mut r = BodyReader::new(body, "FLOW_OPEN");
                let key = read_flow_key(&mut r)?;
                let entries_held = r.u64()?;
                r.finish()?;
                Ok(Record::FlowOpen { key, entries_held })
            }
            KIND_FLOW_DATA => {
                let mut r = BodyReader::new(body, "FLOW_DATA");
                let key = read_flow_key(&mut r)?;
                let bytes = r.rest().to_vec();
                Ok(Record::FlowData { key, bytes })
            }
            KIND_FLOW_END => {
                let mut r = BodyReader::new(body, "FLOW_END");
                let key = read_flow_key(&mut r)?;
                r.finish()?;
                Ok(Record::FlowEnd { key })
            }
            KIND_SERVER_HELLO => {
                let mut r = BodyReader::new(body, "SERVER_HELLO");
                if r.take(4)? != RESPONSE_MAGIC {
                    return Err(WireError::BadMagic);
                }
                let version = r.u16()?;
                if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
                    return Err(WireError::UnsupportedVersion(version));
                }
                let resume_bytes_in = r.u64()?;
                let replay_entries = r.u64()?;
                let reseed_entries = r.u64()?;
                let warm = r.u8()? != 0;
                let codecs = read_codec_set(&mut r, version)?;
                r.finish()?;
                Ok(Record::ServerHello(ServerHello {
                    version,
                    resume_bytes_in,
                    replay_entries,
                    reseed_entries,
                    warm,
                    codecs,
                }))
            }
            KIND_PAYLOAD => {
                let mut r = BodyReader::new(body, "PAYLOAD");
                let packet_type = packet_type_from(r.u8()?)?;
                let len = r.u32()? as usize;
                let bytes = r.take(len)?.to_vec();
                r.finish()?;
                Ok(Record::Payload {
                    packet_type,
                    codec: None,
                    bytes,
                })
            }
            KIND_PAYLOAD_TAGGED => {
                let mut r = BodyReader::new(body, "PAYLOAD_TAGGED");
                let raw = r.u8()?;
                let Some(codec) = codec_from_u8(raw) else {
                    return Err(WireError::UnknownCodec(raw));
                };
                let packet_type = packet_type_from(r.u8()?)?;
                let len = r.u32()? as usize;
                let bytes = r.take(len)?.to_vec();
                r.finish()?;
                Ok(Record::Payload {
                    packet_type,
                    codec: Some(codec),
                    bytes,
                })
            }
            KIND_CONTROL => {
                let mut r = BodyReader::new(body, "CONTROL");
                let update = read_update(&mut r)?;
                r.finish()?;
                Ok(Record::Control(update))
            }
            KIND_RESEED => {
                let mut r = BodyReader::new(body, "RESEED");
                let update = read_update(&mut r)?;
                r.finish()?;
                Ok(Record::Reseed(update))
            }
            KIND_DONE => {
                let mut r = BodyReader::new(body, "DONE");
                let done = DoneSummary {
                    bytes_in: r.u64()?,
                    payloads_emitted: r.u64()?,
                    wire_bytes: r.u64()?,
                    compressed_payloads: r.u64()?,
                    control_updates: r.u64()?,
                    server_initiated: r.u8()? != 0,
                };
                r.finish()?;
                Ok(Record::Done(done))
            }
            KIND_ERROR => {
                let mut r = BodyReader::new(body, "ERROR");
                let bytes = r.rest();
                let message = String::from_utf8(bytes.to_vec())
                    .map_err(|_| WireError::Malformed("ERROR: message is not UTF-8".into()))?;
                Ok(Record::Error(message))
            }
            KIND_FLOW_OPENED => {
                let mut r = BodyReader::new(body, "FLOW_OPENED");
                let key = read_flow_key(&mut r)?;
                // The embedded resume plan carries only the resume fields;
                // version and codec set were negotiated by the connection
                // hello, so the per-flow copy inherits neutral defaults.
                let resume = ServerHello {
                    version: WIRE_VERSION,
                    resume_bytes_in: r.u64()?,
                    replay_entries: r.u64()?,
                    reseed_entries: r.u64()?,
                    warm: r.u8()? != 0,
                    codecs: Vec::new(),
                };
                r.finish()?;
                Ok(Record::FlowOpened { key, resume })
            }
            KIND_FLOW_PAYLOAD => {
                let mut r = BodyReader::new(body, "FLOW_PAYLOAD");
                let key = read_flow_key(&mut r)?;
                let packet_type = packet_type_from(r.u8()?)?;
                let len = r.u32()? as usize;
                let bytes = r.take(len)?.to_vec();
                r.finish()?;
                Ok(Record::FlowPayload {
                    key,
                    packet_type,
                    codec: None,
                    bytes,
                })
            }
            KIND_FLOW_PAYLOAD_TAGGED => {
                let mut r = BodyReader::new(body, "FLOW_PAYLOAD_TAGGED");
                let key = read_flow_key(&mut r)?;
                let raw = r.u8()?;
                let Some(codec) = codec_from_u8(raw) else {
                    return Err(WireError::UnknownCodec(raw));
                };
                let packet_type = packet_type_from(r.u8()?)?;
                let len = r.u32()? as usize;
                let bytes = r.take(len)?.to_vec();
                r.finish()?;
                Ok(Record::FlowPayload {
                    key,
                    packet_type,
                    codec: Some(codec),
                    bytes,
                })
            }
            KIND_FLOW_CONTROL => {
                let mut r = BodyReader::new(body, "FLOW_CONTROL");
                let key = read_flow_key(&mut r)?;
                let update = read_update(&mut r)?;
                r.finish()?;
                Ok(Record::FlowControl { key, update })
            }
            KIND_FLOW_RESEED => {
                let mut r = BodyReader::new(body, "FLOW_RESEED");
                let key = read_flow_key(&mut r)?;
                let update = read_update(&mut r)?;
                r.finish()?;
                Ok(Record::FlowReseed { key, update })
            }
            KIND_FLOW_DONE => {
                let mut r = BodyReader::new(body, "FLOW_DONE");
                let key = read_flow_key(&mut r)?;
                let summary = DoneSummary {
                    bytes_in: r.u64()?,
                    payloads_emitted: r.u64()?,
                    wire_bytes: r.u64()?,
                    compressed_payloads: r.u64()?,
                    control_updates: r.u64()?,
                    server_initiated: r.u8()? != 0,
                };
                r.finish()?;
                Ok(Record::FlowDone { key, summary })
            }
            other => Err(WireError::UnknownKind(other)),
        }
    }
}

/// Incremental record reader over any [`Read`] source (a socket, usually).
///
/// Buffers internally and reframes; `read_record` returns `Ok(None)` only on
/// a clean EOF at a record boundary. EOF inside a record is
/// [`WireError::Truncated`] — a torn tail is never silently dropped.
pub struct RecordReader<R> {
    inner: R,
    codec: WireCodec,
    buf: Vec<u8>,
    start: usize,
}

impl<R: Read> RecordReader<R> {
    /// Wraps `inner`; no bytes are read until the first `read_record`.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            codec: WireCodec::new(),
            buf: Vec::with_capacity(16 * 1024),
            start: 0,
        }
    }

    /// Reads the next record, blocking on the source as needed.
    pub fn read_record(&mut self) -> Result<Option<Record>, WireError> {
        loop {
            if let Some((record, used)) = self.codec.decode(&self.buf[self.start..])? {
                self.start += used;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                return Ok(Some(record));
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(WireError::Truncated)
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }

    /// Consumes the reader, returning the wrapped source.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_key() -> FlowKey {
        FlowKey {
            tenant: 0xA1,
            flow: 0xF700_0001,
        }
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::ClientHello(ClientHello {
                version: WIRE_VERSION,
                stream_id: 0xDEAD_BEEF,
                entries_held: 7,
                multiplex: true,
                codecs: vec![zipline_engine::CODEC_GD, zipline_engine::CODEC_DEFLATE],
            }),
            Record::Data(vec![0u8; 32]),
            Record::Data((0..=255u8).collect()),
            Record::End,
            Record::FlowOpen {
                key: sample_key(),
                entries_held: 11,
            },
            Record::FlowData {
                key: sample_key(),
                bytes: vec![5u8; 48],
            },
            Record::FlowEnd { key: sample_key() },
            Record::ServerHello(ServerHello {
                version: WIRE_VERSION,
                resume_bytes_in: 8192,
                replay_entries: 3,
                reseed_entries: 0,
                warm: true,
                codecs: vec![zipline_engine::CODEC_GD],
            }),
            Record::Payload {
                packet_type: PacketType::Compressed,
                codec: None,
                bytes: vec![1, 2, 3, 4],
            },
            Record::Payload {
                packet_type: PacketType::Compressed,
                codec: Some(zipline_engine::CODEC_DEFLATE),
                bytes: vec![11, 12, 13],
            },
            Record::Control(DictionaryUpdate {
                seq: 9,
                at: 41,
                op: UpdateOp::Install {
                    id: 12,
                    basis: BitVec::from_bytes(&[0xAB, 0xCD, 0xEF]),
                },
            }),
            Record::Reseed(DictionaryUpdate {
                seq: 0,
                at: 0,
                op: UpdateOp::Remove { id: 3 },
            }),
            Record::Done(DoneSummary {
                bytes_in: 1,
                payloads_emitted: 2,
                wire_bytes: 3,
                compressed_payloads: 4,
                control_updates: 5,
                server_initiated: true,
            }),
            Record::Error("engine exploded".into()),
            Record::FlowOpened {
                key: sample_key(),
                resume: ServerHello {
                    version: WIRE_VERSION,
                    resume_bytes_in: 4096,
                    replay_entries: 2,
                    reseed_entries: 1,
                    warm: true,
                    codecs: Vec::new(),
                },
            },
            Record::FlowPayload {
                key: sample_key(),
                packet_type: PacketType::Uncompressed,
                codec: None,
                bytes: vec![6, 7, 8],
            },
            Record::FlowPayload {
                key: sample_key(),
                packet_type: PacketType::Uncompressed,
                codec: Some(zipline_engine::CODEC_GD),
                bytes: vec![16, 17],
            },
            Record::FlowControl {
                key: sample_key(),
                update: DictionaryUpdate {
                    seq: 13,
                    at: 2,
                    op: UpdateOp::Install {
                        id: 5,
                        basis: BitVec::from_bytes(&[0x0F, 0xF0]),
                    },
                },
            },
            Record::FlowReseed {
                key: sample_key(),
                update: DictionaryUpdate {
                    seq: 1,
                    at: 0,
                    op: UpdateOp::Remove { id: 9 },
                },
            },
            Record::FlowDone {
                key: sample_key(),
                summary: DoneSummary {
                    bytes_in: 10,
                    payloads_emitted: 20,
                    wire_bytes: 30,
                    compressed_payloads: 40,
                    control_updates: 50,
                    server_initiated: false,
                },
            },
        ]
    }

    /// Exhaustiveness companion to `sample_records`: every declared
    /// `KIND_*` byte must be produced by the encoder for some sample, so
    /// a kind added to the protocol without a sample fails here (and the
    /// workspace lint's L002 rule fails on the missing test reference).
    #[test]
    fn every_declared_kind_byte_is_encoded_by_a_sample_record() {
        let declared = [
            KIND_CLIENT_HELLO,
            KIND_DATA,
            KIND_END,
            KIND_FLOW_OPEN,
            KIND_FLOW_DATA,
            KIND_FLOW_END,
            KIND_SERVER_HELLO,
            KIND_PAYLOAD,
            KIND_CONTROL,
            KIND_DONE,
            KIND_ERROR,
            KIND_RESEED,
            KIND_FLOW_OPENED,
            KIND_FLOW_PAYLOAD,
            KIND_FLOW_CONTROL,
            KIND_FLOW_RESEED,
            KIND_FLOW_DONE,
            KIND_PAYLOAD_TAGGED,
            KIND_FLOW_PAYLOAD_TAGGED,
        ];
        let mut codec = WireCodec::new();
        // The kind byte sits directly after the 4-byte length prefix.
        let seen: Vec<u8> = sample_records()
            .iter()
            .map(|record| codec.encode(record)[4])
            .collect();
        for kind in declared {
            assert!(
                seen.contains(&kind),
                "declared kind {kind:#04x} is not produced by any sample record"
            );
        }
    }

    #[test]
    fn every_kind_roundtrips_through_the_slice_decoder() {
        let mut codec = WireCodec::new();
        let mut wire = Vec::new();
        for record in sample_records() {
            codec.encode_into(&record, &mut wire);
        }
        let mut offset = 0;
        let mut decoded = Vec::new();
        while let Some((record, used)) = codec.decode(&wire[offset..]).expect("valid frames") {
            decoded.push(record);
            offset += used;
        }
        assert_eq!(offset, wire.len());
        assert_eq!(decoded, sample_records());
    }

    #[test]
    fn record_reader_reframes_across_arbitrary_chunking() {
        struct DribbleReader {
            data: Vec<u8>,
            pos: usize,
            step: usize,
        }
        impl Read for DribbleReader {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                let n = self
                    .step
                    .min(out.len())
                    .min(self.data.len() - self.pos)
                    .min(1 + self.pos % 3);
                out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }

        let mut codec = WireCodec::new();
        let mut wire = Vec::new();
        for record in sample_records() {
            codec.encode_into(&record, &mut wire);
        }
        let mut reader = RecordReader::new(DribbleReader {
            data: wire,
            pos: 0,
            step: 7,
        });
        let mut decoded = Vec::new();
        while let Some(record) = reader.read_record().expect("valid frames") {
            decoded.push(record);
        }
        assert_eq!(decoded, sample_records());
    }

    #[test]
    fn borrowed_encoders_match_the_record_encoder() {
        let mut codec = WireCodec::new();
        let update = DictionaryUpdate {
            seq: 4,
            at: 17,
            op: UpdateOp::Install {
                id: 2,
                basis: BitVec::from_bytes(&[0x55; 8]),
            },
        };
        assert_eq!(
            codec.encode_payload(None, PacketType::Uncompressed, &[9, 8, 7]),
            codec.encode(&Record::Payload {
                packet_type: PacketType::Uncompressed,
                codec: None,
                bytes: vec![9, 8, 7],
            })
        );
        assert_eq!(
            codec.encode_payload(
                Some(zipline_engine::CODEC_DEFLATE),
                PacketType::Compressed,
                &[9, 8]
            ),
            codec.encode(&Record::Payload {
                packet_type: PacketType::Compressed,
                codec: Some(zipline_engine::CODEC_DEFLATE),
                bytes: vec![9, 8],
            })
        );
        assert_eq!(
            codec.encode_control(&update),
            codec.encode(&Record::Control(update.clone()))
        );
        assert_eq!(
            codec.encode_data(&[1, 2, 3]),
            codec.encode(&Record::Data(vec![1, 2, 3]))
        );
        assert_eq!(
            codec.encode_flow_payload(sample_key(), None, PacketType::Raw, &[4, 5]),
            codec.encode(&Record::FlowPayload {
                key: sample_key(),
                packet_type: PacketType::Raw,
                codec: None,
                bytes: vec![4, 5],
            })
        );
        assert_eq!(
            codec.encode_flow_payload(
                sample_key(),
                Some(zipline_engine::CODEC_GD),
                PacketType::Compressed,
                &[4]
            ),
            codec.encode(&Record::FlowPayload {
                key: sample_key(),
                packet_type: PacketType::Compressed,
                codec: Some(zipline_engine::CODEC_GD),
                bytes: vec![4],
            })
        );
        assert_eq!(
            codec.encode_flow_control(sample_key(), &update),
            codec.encode(&Record::FlowControl {
                key: sample_key(),
                update,
            })
        );
        assert_eq!(
            codec.encode_flow_data(sample_key(), &[6]),
            codec.encode(&Record::FlowData {
                key: sample_key(),
                bytes: vec![6],
            })
        );
    }

    /// A version-1 peer's hello decodes to `UnsupportedVersion` — the
    /// server answers with a typed `ERROR` record (covered end-to-end by
    /// the `flow_mux` suite) instead of crashing or mis-parsing.
    #[test]
    fn version_one_hellos_are_rejected() {
        // Hand-craft a v1 CLIENT_HELLO frame: magic + version 1 + stream
        // id + cursor (no multiplex byte — the v1 body).
        let mut body = vec![KIND_CLIENT_HELLO];
        body.extend_from_slice(&REQUEST_MAGIC);
        put_u16(&mut body, 1);
        put_u64(&mut body, 77);
        put_u64(&mut body, 0);
        let crc = WireCodec::new().crc.compute_bytes(&body) as u32;
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&crc.to_le_bytes());

        let codec = WireCodec::new();
        assert!(matches!(
            codec.decode(&frame),
            Err(WireError::UnsupportedVersion(1))
        ));

        // Same for a v1 SERVER_HELLO, so an old server is equally loud.
        let mut body = vec![KIND_SERVER_HELLO];
        body.extend_from_slice(&RESPONSE_MAGIC);
        put_u16(&mut body, 1);
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        body.push(0);
        let crc = WireCodec::new().crc.compute_bytes(&body) as u32;
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            codec.decode(&frame),
            Err(WireError::UnsupportedVersion(1))
        ));
    }

    /// A version-2 peer (pre-registry, no codec set) still connects: its
    /// exact historical hello body parses to a hello with an empty codec
    /// set, which the server treats as "fixed backend, untagged stream".
    #[test]
    fn version_two_hellos_are_accepted_with_an_empty_codec_set() {
        let codec = WireCodec::new();

        // Hand-craft the exact v2 CLIENT_HELLO body: magic + version 2 +
        // stream id + cursor + multiplex flag, nothing after.
        let mut body = vec![KIND_CLIENT_HELLO];
        body.extend_from_slice(&REQUEST_MAGIC);
        put_u16(&mut body, 2);
        put_u64(&mut body, 42);
        put_u64(&mut body, 5);
        body.push(1);
        let crc = WireCodec::new().crc.compute_bytes(&body) as u32;
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&crc.to_le_bytes());
        let (record, used) = codec
            .decode(&frame)
            .expect("v2 hello parses")
            .expect("whole");
        assert_eq!(used, frame.len());
        assert_eq!(
            record,
            Record::ClientHello(ClientHello {
                version: 2,
                stream_id: 42,
                entries_held: 5,
                multiplex: true,
                codecs: Vec::new(),
            })
        );

        // And the exact v2 SERVER_HELLO body.
        let mut body = vec![KIND_SERVER_HELLO];
        body.extend_from_slice(&RESPONSE_MAGIC);
        put_u16(&mut body, 2);
        put_u64(&mut body, 1024);
        put_u64(&mut body, 2);
        put_u64(&mut body, 1);
        body.push(0);
        let crc = WireCodec::new().crc.compute_bytes(&body) as u32;
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&crc.to_le_bytes());
        let (record, _) = codec
            .decode(&frame)
            .expect("v2 hello parses")
            .expect("whole");
        assert_eq!(
            record,
            Record::ServerHello(ServerHello {
                version: 2,
                resume_bytes_in: 1024,
                replay_entries: 2,
                reseed_entries: 1,
                warm: false,
                codecs: Vec::new(),
            })
        );

        // A hello encoded at version 2 through the codec produces the
        // same historical body shape — no codec-set suffix.
        let mut v2_codec = WireCodec::new();
        let encoded = v2_codec.encode(&Record::ClientHello(ClientHello {
            version: 2,
            stream_id: 42,
            entries_held: 5,
            multiplex: true,
            codecs: vec![zipline_engine::CODEC_GD],
        }));
        assert_eq!(encoded, frame_of_v2_client_hello());
    }

    fn frame_of_v2_client_hello() -> Vec<u8> {
        let mut body = vec![KIND_CLIENT_HELLO];
        body.extend_from_slice(&REQUEST_MAGIC);
        put_u16(&mut body, 2);
        put_u64(&mut body, 42);
        put_u64(&mut body, 5);
        body.push(1);
        let crc = WireCodec::new().crc.compute_bytes(&body) as u32;
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&crc.to_le_bytes());
        frame
    }

    /// A tagged payload naming a codec id outside the registry's range is
    /// a typed error, not a panic or a silent mis-decode.
    #[test]
    fn unknown_codec_tags_are_rejected_with_a_typed_error() {
        let mut codec = WireCodec::new();
        // Encode a valid tagged payload, then corrupt the codec id byte
        // (directly after the kind byte) to an unassigned value.
        let mut frame = codec.encode(&Record::Payload {
            packet_type: PacketType::Compressed,
            codec: Some(zipline_engine::CODEC_GD),
            bytes: vec![1, 2],
        });
        frame[5] = 0xEE;
        // Recompute the trailer CRC over the patched body so the frame
        // fails on the codec id, not the checksum.
        let body_end = frame.len() - 4;
        let crc = WireCodec::new().crc.compute_bytes(&frame[4..body_end]) as u32;
        frame[body_end..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            codec.decode(&frame),
            Err(WireError::UnknownCodec(0xEE))
        ));
    }

    #[test]
    fn zero_and_oversized_lengths_are_rejected() {
        let codec = WireCodec::new();
        let mut zero = vec![0u8; 8];
        zero[4] = KIND_END;
        assert!(matches!(
            codec.decode(&zero),
            Err(WireError::OversizedRecord(0))
        ));

        let huge = ((MAX_WIRE_RECORD_BYTES + 1) as u32).to_le_bytes().to_vec();
        assert!(matches!(
            codec.decode(&huge),
            Err(WireError::OversizedRecord(_))
        ));
    }
}
