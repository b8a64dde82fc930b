//! The `serve-mix` serve phase: an in-process `rcpn-serve` on an ephemeral
//! loopback port and one client thread running a closed loop with at most
//! one job in flight per host thread. Serving runs in bursts; after each
//! burst drains, the caller runs one paired in-process round, which both
//! normalises the burst's host times and provides the in-process results
//! the served ones must equal.
//!
//! The client speaks the wire protocol directly (`encode_request`,
//! `write_frame`, `read_frame`, `decode_reply`), so every `JobDone` is
//! timestamped when it arrives, whatever order jobs finish in.

use std::collections::{BTreeMap, HashMap};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use processors::sim::ProcModel;
use rcpn_serve::client::Client;
use rcpn_serve::protocol::{
    decode_reply, encode_request, read_frame, write_frame, JobOutcome, JobSpec, Reply, Request,
};
use rcpn_serve::server::Server;

use crate::plan::ServeJob;
use crate::rounds::{ns, MAX_CYCLES};
use crate::setup::Prepared;
use crate::stats::Tally;
use crate::trace::Tracer;

/// A socket read that waits longer than this ends the serve phase.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One completed served job.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub burst: usize,
    /// Index into `ProcModel::ALL`.
    pub model: usize,
    pub program: usize,
    /// Submit → `JobDone`.
    pub ms: f64,
}

/// What the serve phase measured.
#[derive(Default)]
pub struct Served {
    /// Wall time of each burst, in seconds.
    pub bursts: Vec<f64>,
    /// Every completed job, in completion order.
    pub done: Vec<Done>,
    /// Submit → `Accepted`/`Busy`, in µs.
    pub admit_us: Vec<f64>,
    /// `Accepted` → `JobDone`, in ms.
    pub collect_ms: Vec<f64>,
    pub submitted: u64,
    pub busy: u64,
    /// First served outcome of each distinct (model, program) job.
    pub first: BTreeMap<(usize, usize), JobOutcome>,
    /// Size and encode time of each `Submit` frame.
    pub request_bytes: Vec<f64>,
    pub encode_ns: Vec<f64>,
    /// Size and decode time of each `JobDone` frame.
    pub reply_bytes: Vec<f64>,
    pub decode_ns: Vec<f64>,
}

fn model_index(model: ProcModel) -> usize {
    ProcModel::ALL.iter().position(|&m| m == model).expect("registry model")
}

struct InFlight {
    key: (usize, usize),
    submitted: Instant,
    accepted: Option<Instant>,
}

struct Loop<'a> {
    stream: TcpStream,
    tr: &'a mut Tracer,
    tally: &'a mut Tally,
    out: Served,
    inflight: HashMap<u64, InFlight>,
}

impl Loop<'_> {
    fn send(&mut self, spec: JobSpec) -> Result<(), String> {
        let job = spec.job_id;
        let o = self.tr.enter("serve.encode_request", job);
        let t = Instant::now();
        let frame = encode_request(&Request::Submit(spec));
        let dt = t.elapsed();
        self.tr.exit(o);
        self.out.encode_ns.push(ns(dt) as f64);
        self.out.request_bytes.push(frame.len() as f64);
        write_frame(&mut self.stream, &frame).map_err(|e| format!("submit: {e}"))
    }

    /// Reads and handles one reply; returns the job id it settled the
    /// admission of, if any.
    fn receive(&mut self) -> Result<Option<u64>, String> {
        let frame = read_frame(&mut self.stream).map_err(|e| format!("read: {e}"))?;
        let now = Instant::now();
        let o = self.tr.enter("serve.decode_reply", 0);
        let t = Instant::now();
        let reply = decode_reply(&frame);
        let dt = t.elapsed();
        self.tr.exit(o);
        if let Ok(Reply::JobDone { .. }) = &reply {
            self.out.decode_ns.push(ns(dt) as f64);
            self.out.reply_bytes.push(frame.len() as f64);
        }
        match reply.map_err(|e| format!("decode: {e}"))? {
            Reply::Accepted { job_id } => {
                let f = self.inflight.get_mut(&job_id).ok_or("Accepted for an unknown job")?;
                f.accepted = Some(now);
                self.out.admit_us.push(ns(now - f.submitted) as f64 / 1e3);
                self.tr.record("serve.admit", job_id, f.submitted, now);
                Ok(Some(job_id))
            }
            Reply::Busy { job_id } => {
                let f = self.inflight.remove(&job_id).ok_or("Busy for an unknown job")?;
                self.out.admit_us.push(ns(now - f.submitted) as f64 / 1e3);
                self.out.busy += 1;
                self.tally.record(Some("served job refused: Busy".into()));
                Ok(Some(job_id))
            }
            Reply::JobDone { job_id, outcome } => {
                let f = self.inflight.remove(&job_id).ok_or("JobDone for an unknown job")?;
                let accepted = f.accepted.unwrap_or(f.submitted);
                let (model, program) = f.key;
                let ms = ns(now - f.submitted) as f64 / 1e6;
                self.out.done.push(Done { burst: self.out.bursts.len(), model, program, ms });
                self.out.collect_ms.push(ns(now - accepted) as f64 / 1e6);
                self.tr.record("serve.collect", job_id, accepted, now);
                self.tr.record("serve.job", job_id, f.submitted, now);
                let failure = match self.out.first.get(&f.key) {
                    None => {
                        self.out.first.insert(f.key, *outcome);
                        None
                    }
                    Some(first) if *first != *outcome => {
                        Some("served result differs from the same job's first run".to_string())
                    }
                    Some(_) => None,
                };
                self.tally.record(failure);
                Ok(None)
            }
            Reply::JobFailed { job_id, error } => {
                self.inflight.remove(&job_id);
                self.tally.record(Some(format!("JobFailed: {error}")));
                Ok(Some(job_id))
            }
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    fn submit(&mut self, job_id: u64, job: ServeJob, programs: &[Prepared]) -> Result<(), String> {
        let spec = JobSpec::for_program(
            job_id,
            job.model.label(),
            &programs[job.program].program,
            MAX_CYCLES,
        );
        let key = (model_index(job.model), job.program);
        self.inflight.insert(job_id, InFlight { key, submitted: Instant::now(), accepted: None });
        self.out.submitted += 1;
        self.send(spec)?;
        // Wait for this job's admission; completions of earlier jobs that
        // arrive meanwhile are handled as they come.
        while self.receive()? != Some(job_id) {}
        Ok(())
    }
}

/// How long the serve phase lasts and how it is cut into bursts.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Bursts start until this has passed, at least `min_bursts` have run
    /// and at least `min_jobs` jobs have completed.
    pub window: Duration,
    pub burst: Duration,
    pub min_bursts: usize,
    pub min_jobs: usize,
    pub max_in_flight: usize,
}

/// Serves `jobs` (cycled) in bursts on `schedule`, calling `between` after
/// each burst has drained, then shuts the server down.
///
/// # Errors
///
/// The client could not connect to or shut down the server. Transport
/// failures during the phase are counted in `tally` instead.
pub fn serve_phase(
    server: Server,
    programs: &[Prepared],
    jobs: &[ServeJob],
    schedule: Schedule,
    tr: &mut Tracer,
    tally: &mut Tally,
    between: &mut dyn FnMut(&mut Tracer, &mut Tally),
) -> std::io::Result<Served> {
    let addr = server.local_addr();
    std::thread::scope(|s| {
        let handle = s.spawn(move || server.run());
        let result = client_loop(addr, programs, jobs, schedule, tr, tally, between);
        let stopped = Client::connect(addr).and_then(|mut c| c.shutdown());
        if let Err(e) = stopped {
            // The server thread would never return; the scope cannot end.
            eprintln!("error: could not shut the server down: {e}");
            std::process::exit(2);
        }
        match handle.join() {
            Ok(Ok(())) => result,
            Ok(Err(e)) => Err(std::io::Error::other(format!("server: {e}"))),
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    })
}

fn client_loop(
    addr: std::net::SocketAddr,
    programs: &[Prepared],
    jobs: &[ServeJob],
    schedule: Schedule,
    tr: &mut Tracer,
    tally: &mut Tally,
    between: &mut dyn FnMut(&mut Tracer, &mut Tally),
) -> std::io::Result<Served> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut lp = Loop { stream, tr, tally, out: Served::default(), inflight: HashMap::new() };
    let start = Instant::now();
    let mut next = 0usize;
    let more = |out: &Served| {
        out.bursts.len() < schedule.min_bursts
            || out.done.len() < schedule.min_jobs
            || start.elapsed() < schedule.window
    };
    while more(&lp.out) {
        let burst_start = Instant::now();
        let root = lp.tr.enter("bench.serve", lp.out.bursts.len() as u64);
        let outcome: Result<(), String> = (|| loop {
            while lp.inflight.len() < schedule.max_in_flight
                && burst_start.elapsed() < schedule.burst
            {
                lp.submit(next as u64 + 1, jobs[next % jobs.len()], programs)?;
                next += 1;
            }
            if lp.inflight.is_empty() {
                return Ok(());
            }
            lp.receive()?;
        })();
        lp.tr.exit(root);
        lp.out.bursts.push(burst_start.elapsed().as_secs_f64());
        if let Err(e) = outcome {
            eprintln!("serve phase stopped early: {e}");
            for _ in 0..lp.inflight.len() {
                lp.tally.record(Some(format!("served job lost: {e}")));
            }
            break;
        }
        between(lp.tr, lp.tally);
    }
    Ok(lp.out)
}
