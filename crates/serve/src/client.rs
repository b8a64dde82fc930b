//! A blocking client for the `rcpn-serve` protocol: connect, submit
//! jobs, collect streamed results.
//!
//! The server streams [`Reply::JobDone`] frames as jobs finish, which is
//! not necessarily submission order — and they can arrive interleaved
//! with the acknowledgement of a *later* submission. [`Client`] therefore
//! keeps a small inbox of replies read off the socket while waiting for
//! a specific one, so callers get a simple call-and-return API
//! ([`Client::submit`], [`Client::collect`]) over the asynchronous wire.

use std::collections::VecDeque;
use std::net::{TcpStream, ToSocketAddrs};

use arm_isa::program::Program;

use crate::protocol::{read_reply, write_request, JobOutcome, JobSpec, Reply, Request, WireError};

/// Server facts returned by [`Client::hello`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// Labels of the models the server warmed at bind time.
    pub models: Vec<String>,
    /// Worker-pool size.
    pub workers: u32,
    /// Bounded admission-queue capacity.
    pub queue_capacity: u32,
}

/// Admission verdict for one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The job is queued; a [`Client::collect`] call will return its
    /// outcome.
    Accepted,
    /// The bounded admission queue was full — the job was *not* queued.
    /// Resubmit later; this is the protocol's backpressure signal.
    Busy,
}

/// Client-side errors: wire faults plus server-reported conditions.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or codec failure.
    Wire(WireError),
    /// The server reported the job failed (e.g. unknown model).
    JobFailed {
        /// The failed job's id.
        job_id: u64,
        /// Server-provided diagnostic.
        error: String,
    },
    /// The server rejected a frame as malformed and closed the
    /// connection.
    Protocol(String),
    /// The server is shutting down and will not take new work.
    ShuttingDown,
    /// The server answered with a reply that makes no sense for the
    /// request (a server bug or version skew beyond the version byte).
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::JobFailed { job_id, error } => {
                write!(f, "job {job_id} failed: {error}")
            }
            ClientError::Protocol(msg) => write!(f, "server rejected frame: {msg}"),
            ClientError::ShuttingDown => write!(f, "server is shutting down"),
            ClientError::Unexpected(msg) => write!(f, "unexpected reply: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A connected `rcpn-serve` client.
pub struct Client {
    stream: TcpStream,
    inbox: VecDeque<Reply>,
    next_job_id: u64,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on connection failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(WireError::from)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream, inbox: VecDeque::new(), next_job_id: 1 })
    }

    /// Asks the server who it is: warmed models and pool geometry.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on transport failure,
    /// [`ClientError::Unexpected`] if the server answers with something
    /// other than its info.
    pub fn hello(&mut self) -> Result<ServerInfo, ClientError> {
        write_request(&mut self.stream, &Request::Hello)?;
        match self.next_reply_matching(|r| matches!(r, Reply::ServerInfo { .. }))? {
            Reply::ServerInfo { models, workers, queue_capacity } => {
                Ok(ServerInfo { models, workers, queue_capacity })
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Submits one simulation job and waits for the admission verdict.
    /// Returns the job id (for pairing with [`Client::collect`]) and
    /// whether the server accepted it or answered [`Admission::Busy`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on transport failure,
    /// [`ClientError::JobFailed`] if the server rejected the job outright
    /// (unknown model), [`ClientError::ShuttingDown`] if the server is
    /// draining.
    pub fn submit(
        &mut self,
        model: &str,
        program: &Program,
        max_cycles: u64,
    ) -> Result<(u64, Admission), ClientError> {
        let job_id = self.next_job_id;
        self.next_job_id += 1;
        let spec = JobSpec::for_program(job_id, model, program, max_cycles);
        write_request(&mut self.stream, &Request::Submit(spec))?;
        let reply = self.next_reply_matching(|r| {
            matches!(
                r,
                Reply::Accepted { job_id: id }
                | Reply::Busy { job_id: id }
                | Reply::JobFailed { job_id: id, .. } if *id == job_id
            ) || matches!(r, Reply::ShuttingDown)
        })?;
        match reply {
            Reply::Accepted { .. } => Ok((job_id, Admission::Accepted)),
            Reply::Busy { .. } => Ok((job_id, Admission::Busy)),
            Reply::JobFailed { job_id, error } => Err(ClientError::JobFailed { job_id, error }),
            Reply::ShuttingDown => Err(ClientError::ShuttingDown),
            other => Err(unexpected(&other)),
        }
    }

    /// Waits for the completion of a specific accepted job and returns
    /// its outcome. Results for *other* jobs arriving first are kept in
    /// the inbox, so collection order is the caller's choice.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on transport failure,
    /// [`ClientError::JobFailed`] if the server reports the job failed.
    pub fn collect(&mut self, job_id: u64) -> Result<JobOutcome, ClientError> {
        let reply = self.next_reply_matching(|r| {
            matches!(
                r,
                Reply::JobDone { job_id: id, .. }
                | Reply::JobFailed { job_id: id, .. } if *id == job_id
            )
        })?;
        match reply {
            Reply::JobDone { outcome, .. } => Ok(*outcome),
            Reply::JobFailed { job_id, error } => Err(ClientError::JobFailed { job_id, error }),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to shut down cleanly. Returns once the server has
    /// acknowledged.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on transport failure.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        write_request(&mut self.stream, &Request::Shutdown)?;
        match self.next_reply_matching(|r| matches!(r, Reply::ShuttingDown))? {
            Reply::ShuttingDown => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads replies off the socket until one matches `want`, buffering
    /// the rest in arrival order. [`Reply::ProtoError`] is terminal and
    /// surfaces immediately regardless of the predicate.
    fn next_reply_matching(&mut self, want: impl Fn(&Reply) -> bool) -> Result<Reply, ClientError> {
        if let Some(pos) = self.inbox.iter().position(&want) {
            return Ok(self.inbox.remove(pos).expect("position is in range"));
        }
        loop {
            let reply = read_reply(&mut self.stream)?;
            if let Reply::ProtoError { message } = reply {
                return Err(ClientError::Protocol(message));
            }
            if want(&reply) {
                return Ok(reply);
            }
            self.inbox.push_back(reply);
        }
    }
}

fn unexpected(reply: &Reply) -> ClientError {
    ClientError::Unexpected(format!("{reply:?}"))
}
