//! The `rcpn-serve` wire protocol: length-prefixed binary frames.
//!
//! Everything on the socket is a **frame**:
//!
//! ```text
//! [len: u32 LE] [version: u8] [tag: u8] [body: (len - 2) bytes]
//! ```
//!
//! `len` counts the version byte, the tag byte and the body (never the
//! length prefix itself) and must not exceed [`MAX_FRAME_LEN`] — a larger
//! prefix is rejected *before* any allocation as
//! [`WireError::Oversize`]. `version` is [`PROTOCOL_VERSION`]; a frame
//! with any other value is rejected as [`WireError::BadVersion`] without
//! interpreting the rest. `tag` selects the message type ([`Request`]
//! tags are `0x01..=0x7f`, [`Reply`] tags `0x81..=0xff`), and the body is
//! a fixed field sequence per tag — see `DESIGN.md` §3b for the complete
//! normative field tables.
//!
//! Primitive encodings, all little-endian: `u8`/`u32`/`u64` as raw bytes,
//! `bool` as one byte (`0`/`1`), strings as `u32` byte count + UTF-8
//! bytes, and `u32`/`u64` sequences as `u32` element count + elements.
//! `Option<T>` is one presence byte followed by `T` when present.
//!
//! Every decode failure is a typed [`WireError`], never a panic: the
//! server answers malformed input with a [`Reply::ProtoError`] frame and
//! closes the connection; truncated input and mid-stream disconnects
//! surface as [`WireError::Truncated`] / [`WireError::Closed`] on
//! whichever side observed them.
//!
//! Programs travel as their loadable image (`words`/`base`/`entry`);
//! label tables are debugging metadata with no effect on simulation and
//! are not transmitted — which is why served results can still be
//! bit-identical to an in-process run.

use std::io::{Read, Write};

use arm_isa::program::Program;
use processors::sim::SimResult;
use rcpn::stats::{SchedStats, Stats};

/// Protocol version carried by every frame (bump on any wire change).
pub const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on a frame's declared payload length (16 MiB). A length
/// prefix beyond this is rejected before any buffer is allocated, so a
/// hostile or corrupt prefix cannot drive unbounded allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// A simulation job as submitted on the wire: which registry model to
/// run, the program image, and the cycle budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Client-chosen identifier echoed on every reply about this job.
    pub job_id: u64,
    /// Processor-model label, as in
    /// [`processors::sim::ProcModel::label`] (e.g. `"strongarm"`).
    pub model: String,
    /// Cycle budget for the run.
    pub max_cycles: u64,
    /// Load address of `words[0]`.
    pub base: u32,
    /// Entry point.
    pub entry: u32,
    /// The program image, one word per entry.
    pub words: Vec<u32>,
}

impl JobSpec {
    /// Builds a job for an assembled [`Program`] (labels are not
    /// transmitted; they do not affect simulation).
    pub fn for_program(job_id: u64, model: &str, program: &Program, max_cycles: u64) -> JobSpec {
        JobSpec {
            job_id,
            model: model.to_string(),
            max_cycles,
            base: program.base,
            entry: program.entry,
            words: program.words.clone(),
        }
    }

    /// Reassembles the transmitted image as a loadable [`Program`] (with
    /// an empty label table).
    pub fn program(&self) -> Program {
        Program {
            words: self.words.clone(),
            base: self.base,
            entry: self.entry,
            labels: Default::default(),
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Identify the server: reply is [`Reply::ServerInfo`].
    Hello,
    /// Submit one simulation job; reply is [`Reply::Accepted`] or
    /// [`Reply::Busy`], later followed by [`Reply::JobDone`] /
    /// [`Reply::JobFailed`] when accepted.
    Submit(JobSpec),
    /// Ask the server to stop accepting work and exit its accept loop;
    /// reply is [`Reply::ShuttingDown`].
    Shutdown,
}

/// The full result of a served job, mirroring one element of
/// [`processors::sim::CompiledSim::run_batch`]'s output — the served
/// results are bit-identical to the in-process batch by construction
/// (same instantiate-and-run path).
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Architectural outcome (cycles, instructions, exit code, fault).
    pub result: SimResult,
    /// The engine's full statistics block.
    pub stats: Stats,
    /// The engine's host-side scheduler counters.
    pub sched: SchedStats,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::Hello`]: what this server runs.
    ServerInfo {
        /// Processor-model labels the server holds pre-compiled, in
        /// registry order.
        models: Vec<String>,
        /// Worker-pool size.
        workers: u32,
        /// Bounded admission-queue capacity (jobs beyond it get
        /// [`Reply::Busy`]).
        queue_capacity: u32,
    },
    /// The job entered the admission queue; a [`Reply::JobDone`] or
    /// [`Reply::JobFailed`] with the same `job_id` will follow.
    Accepted {
        /// Echo of [`JobSpec::job_id`].
        job_id: u64,
    },
    /// Backpressure: the admission queue is full and the job was **not**
    /// queued. Retry later; nothing further will arrive for this id.
    Busy {
        /// Echo of [`JobSpec::job_id`].
        job_id: u64,
    },
    /// A completed job, streamed as soon as its worker finishes (results
    /// may arrive in any order; match on `job_id`).
    JobDone {
        /// Echo of [`JobSpec::job_id`].
        job_id: u64,
        /// The simulation's full outcome.
        outcome: Box<JobOutcome>,
    },
    /// The job was rejected or failed before producing a result (e.g. an
    /// unknown model label).
    JobFailed {
        /// Echo of [`JobSpec::job_id`].
        job_id: u64,
        /// Human-readable reason.
        error: String,
    },
    /// Answer to [`Request::Shutdown`]: the server stops accepting
    /// connections and exits once in-flight work drains.
    ShuttingDown,
    /// The server could not interpret a frame (bad version, unknown tag,
    /// corrupt body, oversized length prefix). Sent once, then the
    /// connection is closed.
    ProtoError {
        /// What was wrong with the frame.
        message: String,
    },
}

/// Every way the wire can fail, typed — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The stream ended (or the frame body ran out) mid-message.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A length prefix exceeded [`MAX_FRAME_LEN`]; rejected before any
    /// allocation.
    Oversize {
        /// The declared length.
        len: u32,
    },
    /// The frame's version byte is not [`PROTOCOL_VERSION`].
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// The frame's message tag is not defined by this protocol (or is a
    /// reply tag where a request was expected, and vice versa).
    UnknownTag {
        /// The tag received.
        tag: u8,
    },
    /// The body failed structural validation (bad UTF-8, trailing bytes,
    /// impossible field values).
    Corrupt {
        /// What failed.
        detail: String,
    },
    /// An I/O error underneath the protocol.
    Io {
        /// The I/O error's message.
        detail: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed by peer"),
            WireError::Truncated { context } => {
                write!(f, "truncated frame while reading {context}")
            }
            WireError::Oversize { len } => write!(
                f,
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit (rejected unread)"
            ),
            WireError::BadVersion { got } => write!(
                f,
                "unsupported protocol version {got} (this side speaks version {PROTOCOL_VERSION})"
            ),
            WireError::UnknownTag { tag } => write!(f, "unknown message tag {tag:#04x}"),
            WireError::Corrupt { detail } => write!(f, "corrupt frame: {detail}"),
            WireError::Io { detail } => write!(f, "i/o error: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Truncated { context: "stream" },
            _ => WireError::Io { detail: e.to_string() },
        }
    }
}

// ---------------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------------

/// Append-only encoder over a byte buffer.
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn words(&mut self, ws: &[u32]) {
        self.u32(ws.len() as u32);
        for w in ws {
            self.u32(*w);
        }
    }
    fn u64s(&mut self, vs: &[u64]) {
        self.u32(vs.len() as u32);
        for v in vs {
            self.u64(*v);
        }
    }
    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }
    fn opt_str(&mut self, v: Option<&str>) {
        match v {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }
}

/// Checked cursor over a frame body. Every read is bounds-checked and
/// returns [`WireError::Truncated`] instead of slicing out of range.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, context)?.try_into().unwrap()))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, context)?.try_into().unwrap()))
    }

    fn str(&mut self, context: &'static str) -> Result<String, WireError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Corrupt { detail: format!("{context}: invalid UTF-8") })
    }

    /// Element counts are validated against the bytes actually present
    /// before any allocation, so a corrupt count cannot drive an
    /// oversized `Vec` reservation.
    fn words(&mut self, context: &'static str) -> Result<Vec<u32>, WireError> {
        let n = self.u32(context)? as usize;
        if self.remaining() < n * 4 {
            return Err(WireError::Truncated { context });
        }
        (0..n).map(|_| self.u32(context)).collect()
    }

    fn u64s(&mut self, context: &'static str) -> Result<Vec<u64>, WireError> {
        let n = self.u32(context)? as usize;
        if self.remaining() < n * 8 {
            return Err(WireError::Truncated { context });
        }
        (0..n).map(|_| self.u64(context)).collect()
    }

    fn opt_u32(&mut self, context: &'static str) -> Result<Option<u32>, WireError> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(self.u32(context)?)),
            b => Err(WireError::Corrupt { detail: format!("{context}: presence byte {b}") }),
        }
    }

    fn opt_str(&mut self, context: &'static str) -> Result<Option<String>, WireError> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(self.str(context)?)),
            b => Err(WireError::Corrupt { detail: format!("{context}: presence byte {b}") }),
        }
    }

    fn finish(self, context: &'static str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Corrupt {
                detail: format!("{context}: {} trailing bytes after the message", self.remaining()),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Stats / SchedStats / SimResult bodies
// ---------------------------------------------------------------------------

fn put_stats(e: &mut Enc, s: &Stats) {
    // Exhaustive destructuring: adding a Stats field without extending the
    // wire format must be a compile error here, not silent data loss.
    let Stats {
        cycles,
        retired,
        generated,
        emitted,
        flushed,
        reservations,
        leaked_reservations,
        guard_fails,
        capacity_blocks,
        stalls,
        two_list_commits,
        fires,
        source_fires,
        place_stalls,
        occupancy,
    } = s;
    e.u64(*cycles);
    e.u64(*retired);
    e.u64(*generated);
    e.u64(*emitted);
    e.u64(*flushed);
    e.u64(*reservations);
    e.u64(*leaked_reservations);
    e.u64(*guard_fails);
    e.u64(*capacity_blocks);
    e.u64(*stalls);
    e.u64(*two_list_commits);
    e.u64s(fires);
    e.u64s(source_fires);
    e.u64s(place_stalls);
    e.u64s(occupancy);
}

fn take_stats(d: &mut Dec<'_>) -> Result<Stats, WireError> {
    const C: &str = "Stats";
    Ok(Stats {
        cycles: d.u64(C)?,
        retired: d.u64(C)?,
        generated: d.u64(C)?,
        emitted: d.u64(C)?,
        flushed: d.u64(C)?,
        reservations: d.u64(C)?,
        leaked_reservations: d.u64(C)?,
        guard_fails: d.u64(C)?,
        capacity_blocks: d.u64(C)?,
        stalls: d.u64(C)?,
        two_list_commits: d.u64(C)?,
        fires: d.u64s(C)?,
        source_fires: d.u64s(C)?,
        place_stalls: d.u64s(C)?,
        occupancy: d.u64s(C)?,
    })
}

fn put_sched(e: &mut Enc, s: &SchedStats) {
    let SchedStats {
        place_visits,
        place_skips,
        token_visits,
        token_visits_skipped,
        trans_visits,
        trans_visits_skipped,
        expiry_scans,
        expiry_skips,
        guard_ir_evals,
        guard_hook_evals,
        actions_fused,
        superblocks_entered,
        ops_inlined,
        chains_entered,
        chain_links_fired,
    } = s;
    for v in [
        place_visits,
        place_skips,
        token_visits,
        token_visits_skipped,
        trans_visits,
        trans_visits_skipped,
        expiry_scans,
        expiry_skips,
        guard_ir_evals,
        guard_hook_evals,
        actions_fused,
        superblocks_entered,
        ops_inlined,
        chains_entered,
        chain_links_fired,
    ] {
        e.u64(*v);
    }
}

fn take_sched(d: &mut Dec<'_>) -> Result<SchedStats, WireError> {
    const C: &str = "SchedStats";
    Ok(SchedStats {
        place_visits: d.u64(C)?,
        place_skips: d.u64(C)?,
        token_visits: d.u64(C)?,
        token_visits_skipped: d.u64(C)?,
        trans_visits: d.u64(C)?,
        trans_visits_skipped: d.u64(C)?,
        expiry_scans: d.u64(C)?,
        expiry_skips: d.u64(C)?,
        guard_ir_evals: d.u64(C)?,
        guard_hook_evals: d.u64(C)?,
        actions_fused: d.u64(C)?,
        superblocks_entered: d.u64(C)?,
        ops_inlined: d.u64(C)?,
        chains_entered: d.u64(C)?,
        chain_links_fired: d.u64(C)?,
    })
}

fn put_result(e: &mut Enc, r: &SimResult) {
    let SimResult { cycles, instrs, exit, fault } = r;
    e.u64(*cycles);
    e.u64(*instrs);
    e.opt_u32(*exit);
    e.opt_str(fault.as_deref());
}

fn take_result(d: &mut Dec<'_>) -> Result<SimResult, WireError> {
    const C: &str = "SimResult";
    Ok(SimResult {
        cycles: d.u64(C)?,
        instrs: d.u64(C)?,
        exit: d.opt_u32(C)?,
        fault: d.opt_str(C)?,
    })
}

// ---------------------------------------------------------------------------
// Message tags
// ---------------------------------------------------------------------------

const TAG_HELLO: u8 = 0x01;
const TAG_SUBMIT: u8 = 0x02;
const TAG_SHUTDOWN: u8 = 0x04;

const TAG_SERVER_INFO: u8 = 0x81;
const TAG_ACCEPTED: u8 = 0x82;
const TAG_BUSY: u8 = 0x83;
const TAG_JOB_DONE: u8 = 0x84;
const TAG_JOB_FAILED: u8 = 0x85;
const TAG_SHUTTING_DOWN: u8 = 0x87;
const TAG_PROTO_ERROR: u8 = 0x88;

fn payload(tag: u8) -> Enc {
    let mut e = Enc(Vec::with_capacity(64));
    e.u8(PROTOCOL_VERSION);
    e.u8(tag);
    e
}

/// Encodes a request as a frame payload (version byte + tag + body,
/// without the length prefix — [`write_request`] adds it).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Hello => payload(TAG_HELLO).0,
        Request::Submit(job) => {
            let mut e = payload(TAG_SUBMIT);
            e.u64(job.job_id);
            e.str(&job.model);
            e.u64(job.max_cycles);
            e.u32(job.base);
            e.u32(job.entry);
            e.words(&job.words);
            e.0
        }
        Request::Shutdown => payload(TAG_SHUTDOWN).0,
    }
}

/// Encodes a reply as a frame payload (without the length prefix —
/// [`write_reply`] adds it).
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    match reply {
        Reply::ServerInfo { models, workers, queue_capacity } => {
            let mut e = payload(TAG_SERVER_INFO);
            e.u32(models.len() as u32);
            for m in models {
                e.str(m);
            }
            e.u32(*workers);
            e.u32(*queue_capacity);
            e.0
        }
        Reply::Accepted { job_id } => {
            let mut e = payload(TAG_ACCEPTED);
            e.u64(*job_id);
            e.0
        }
        Reply::Busy { job_id } => {
            let mut e = payload(TAG_BUSY);
            e.u64(*job_id);
            e.0
        }
        Reply::JobDone { job_id, outcome } => {
            let mut e = payload(TAG_JOB_DONE);
            e.u64(*job_id);
            put_result(&mut e, &outcome.result);
            put_stats(&mut e, &outcome.stats);
            put_sched(&mut e, &outcome.sched);
            e.0
        }
        Reply::JobFailed { job_id, error } => {
            let mut e = payload(TAG_JOB_FAILED);
            e.u64(*job_id);
            e.str(error);
            e.0
        }
        Reply::ShuttingDown => payload(TAG_SHUTTING_DOWN).0,
        Reply::ProtoError { message } => {
            let mut e = payload(TAG_PROTO_ERROR);
            e.str(message);
            e.0
        }
    }
}

fn check_header(d: &mut Dec<'_>) -> Result<u8, WireError> {
    let version = d.u8("version byte")?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    d.u8("message tag")
}

/// Decodes a request from a frame payload (as produced by
/// [`encode_request`]).
///
/// # Errors
///
/// Any [`WireError`] decode failure: bad version byte, unknown tag,
/// truncated or corrupt body, trailing bytes.
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let mut d = Dec::new(bytes);
    let tag = check_header(&mut d)?;
    let req = match tag {
        TAG_HELLO => Request::Hello,
        TAG_SUBMIT => {
            const C: &str = "Submit";
            Request::Submit(JobSpec {
                job_id: d.u64(C)?,
                model: d.str(C)?,
                max_cycles: d.u64(C)?,
                base: d.u32(C)?,
                entry: d.u32(C)?,
                words: d.words(C)?,
            })
        }
        TAG_SHUTDOWN => Request::Shutdown,
        tag => return Err(WireError::UnknownTag { tag }),
    };
    d.finish("request")?;
    Ok(req)
}

/// Decodes a reply from a frame payload (as produced by
/// [`encode_reply`]).
///
/// # Errors
///
/// Any [`WireError`] decode failure: bad version byte, unknown tag,
/// truncated or corrupt body, trailing bytes.
pub fn decode_reply(bytes: &[u8]) -> Result<Reply, WireError> {
    let mut d = Dec::new(bytes);
    let tag = check_header(&mut d)?;
    let reply = match tag {
        TAG_SERVER_INFO => {
            const C: &str = "ServerInfo";
            let n = d.u32(C)? as usize;
            let mut models = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                models.push(d.str(C)?);
            }
            Reply::ServerInfo { models, workers: d.u32(C)?, queue_capacity: d.u32(C)? }
        }
        TAG_ACCEPTED => Reply::Accepted { job_id: d.u64("Accepted")? },
        TAG_BUSY => Reply::Busy { job_id: d.u64("Busy")? },
        TAG_JOB_DONE => Reply::JobDone {
            job_id: d.u64("JobDone")?,
            outcome: Box::new(JobOutcome {
                result: take_result(&mut d)?,
                stats: take_stats(&mut d)?,
                sched: take_sched(&mut d)?,
            }),
        },
        TAG_JOB_FAILED => {
            const C: &str = "JobFailed";
            Reply::JobFailed { job_id: d.u64(C)?, error: d.str(C)? }
        }
        TAG_SHUTTING_DOWN => Reply::ShuttingDown,
        TAG_PROTO_ERROR => Reply::ProtoError { message: d.str("ProtoError")? },
        tag => return Err(WireError::UnknownTag { tag }),
    };
    d.finish("reply")?;
    Ok(reply)
}

// ---------------------------------------------------------------------------
// Framed stream I/O
// ---------------------------------------------------------------------------

/// Writes one frame: length prefix + payload.
///
/// # Errors
///
/// [`WireError::Io`] on write failure, [`WireError::Oversize`] if the
/// payload itself exceeds [`MAX_FRAME_LEN`] (nothing is written).
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), WireError> {
    if frame.len() > MAX_FRAME_LEN as usize {
        return Err(WireError::Oversize { len: frame.len() as u32 });
    }
    w.write_all(&(frame.len() as u32).to_le_bytes())?;
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame payload. A clean EOF *before* any length byte is
/// [`WireError::Closed`]; an EOF after a partial prefix or mid-body is
/// [`WireError::Truncated`].
///
/// # Errors
///
/// [`WireError::Closed`] / [`WireError::Truncated`] /
/// [`WireError::Oversize`] / [`WireError::Io`] as described.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_bytes[got..]) {
            Ok(0) if got == 0 => return Err(WireError::Closed),
            Ok(0) => return Err(WireError::Truncated { context: "length prefix" }),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversize { len });
    }
    let mut frame = vec![0u8; len as usize];
    r.read_exact(&mut frame).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => WireError::Truncated { context: "frame body" },
        _ => WireError::Io { detail: e.to_string() },
    })?;
    Ok(frame)
}

/// Writes one request as a frame.
///
/// # Errors
///
/// See [`write_frame`].
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), WireError> {
    write_frame(w, &encode_request(req))
}

/// Writes one reply as a frame.
///
/// # Errors
///
/// See [`write_frame`].
pub fn write_reply(w: &mut impl Write, reply: &Reply) -> Result<(), WireError> {
    write_frame(w, &encode_reply(reply))
}

/// Reads and decodes one request frame.
///
/// # Errors
///
/// Any [`WireError`] from [`read_frame`] or [`decode_request`].
pub fn read_request(r: &mut impl Read) -> Result<Request, WireError> {
    decode_request(&read_frame(r)?)
}

/// Reads and decodes one reply frame.
///
/// # Errors
///
/// Any [`WireError`] from [`read_frame`] or [`decode_reply`].
pub fn read_reply(r: &mut impl Read) -> Result<Reply, WireError> {
    decode_reply(&read_frame(r)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> JobOutcome {
        let stats = Stats {
            cycles: 123,
            retired: 45,
            fires: vec![1, 2, 3],
            occupancy: vec![9; 7],
            ..Default::default()
        };
        let sched = SchedStats { place_visits: 77, superblocks_entered: 11, ..Default::default() };
        JobOutcome {
            result: SimResult { cycles: 123, instrs: 45, exit: Some(6), fault: None },
            stats,
            sched,
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Hello,
            Request::Submit(JobSpec {
                job_id: 42,
                model: "strongarm".into(),
                max_cycles: 10_000,
                base: 0,
                entry: 0,
                words: vec![0xE3A0_0006, 0xEF00_0000],
            }),
            Request::Shutdown,
        ];
        for req in reqs {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            Reply::ServerInfo {
                models: vec!["strongarm".into(), "xscale".into()],
                workers: 4,
                queue_capacity: 64,
            },
            Reply::Accepted { job_id: 1 },
            Reply::Busy { job_id: 2 },
            Reply::JobDone { job_id: 3, outcome: Box::new(sample_outcome()) },
            Reply::JobFailed { job_id: 4, error: "unknown model \"pentium\"".into() },
            Reply::ShuttingDown,
            Reply::ProtoError { message: "unknown message tag 0x77".into() },
        ];
        for reply in replies {
            assert_eq!(decode_reply(&encode_reply(&reply)).unwrap(), reply);
        }
    }

    #[test]
    fn fault_and_exit_options_round_trip() {
        let mut o = sample_outcome();
        o.result.exit = None;
        o.result.fault = Some("undefined instruction at 0x40".into());
        let reply = Reply::JobDone { job_id: 9, outcome: Box::new(o) };
        assert_eq!(decode_reply(&encode_reply(&reply)).unwrap(), reply);
    }

    #[test]
    fn bad_version_is_typed() {
        let mut bytes = encode_request(&Request::Hello);
        bytes[0] = 9;
        assert_eq!(decode_request(&bytes), Err(WireError::BadVersion { got: 9 }));
    }

    #[test]
    fn unknown_tag_is_typed() {
        let mut bytes = encode_request(&Request::Hello);
        bytes[1] = 0x77;
        assert_eq!(decode_request(&bytes), Err(WireError::UnknownTag { tag: 0x77 }));
        // A reply tag where a request is expected is equally unknown.
        let info = encode_reply(&Reply::ShuttingDown);
        assert_eq!(decode_request(&info), Err(WireError::UnknownTag { tag: TAG_SHUTTING_DOWN }));
    }

    #[test]
    fn every_truncation_of_a_submit_is_a_typed_error() {
        let full = encode_request(&Request::Submit(JobSpec {
            job_id: 7,
            model: "xscale".into(),
            max_cycles: 1_000,
            base: 64,
            entry: 64,
            words: vec![1, 2, 3, 4],
        }));
        for cut in 0..full.len() {
            let err = decode_request(&full[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "prefix of {cut} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut bytes = encode_request(&Request::Hello);
        bytes.push(0);
        assert!(matches!(decode_request(&bytes), Err(WireError::Corrupt { .. })));
    }

    #[test]
    fn word_count_is_validated_before_allocation() {
        // A Submit whose word count claims 2^30 elements but whose body
        // ends immediately: must fail as Truncated without reserving.
        let mut e = payload(TAG_SUBMIT);
        e.u64(1);
        e.str("strongarm");
        e.u64(100);
        e.u32(0);
        e.u32(0);
        e.u32(1 << 30);
        assert!(matches!(decode_request(&e.0), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn oversize_length_prefix_rejected_before_allocation() {
        let mut stream = std::io::Cursor::new((MAX_FRAME_LEN + 1).to_le_bytes().to_vec());
        assert_eq!(read_frame(&mut stream), Err(WireError::Oversize { len: MAX_FRAME_LEN + 1 }));
    }

    #[test]
    fn frame_io_round_trips_and_eof_is_typed() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Hello).unwrap();
        write_reply(&mut buf, &Reply::Accepted { job_id: 5 }).unwrap();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(read_request(&mut cur).unwrap(), Request::Hello);
        assert_eq!(read_reply(&mut cur).unwrap(), Reply::Accepted { job_id: 5 });
        assert_eq!(read_frame(&mut cur), Err(WireError::Closed));
    }

    #[test]
    fn partial_length_prefix_is_truncated_not_closed() {
        let mut cur = std::io::Cursor::new(vec![3u8, 0]);
        assert_eq!(read_frame(&mut cur), Err(WireError::Truncated { context: "length prefix" }));
    }

    #[test]
    fn job_spec_round_trips_a_program_image() {
        let program = arm_isa::asm::assemble("mov r0, #6\nswi #0\n").unwrap();
        let spec = JobSpec::for_program(1, "strongarm", &program, 1_000);
        let back = spec.program();
        assert_eq!(back.words, program.words);
        assert_eq!(back.base, program.base);
        assert_eq!(back.entry, program.entry);
    }
}
