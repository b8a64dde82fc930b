//! End-to-end loopback acceptance for the simulation service.
//!
//! The load-bearing assertion is the **determinism guarantee** from
//! `DESIGN.md` §3b: for every `ProcModel::ALL` registry variant, a job
//! served over the wire returns `SimResult`/`Stats`/`SchedStats`
//! bit-identical to an in-process `CompiledSim::run_batch` of the same
//! program.

use processors::sim::{CompiledSim, ProcModel};
use rcpn::batch::BatchRunner;
use rcpn_serve::client::{Admission, Client};
use rcpn_serve::server::{ServeConfig, Server};
use workloads::Workload;

const MAX_CYCLES: u64 = 4_000_000_000;

/// Binds a server, runs it on a background thread, and returns the
/// address plus the join handle (joined after `Client::shutdown`).
fn spawn_server(config: ServeConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("server binds");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));
    (addr, handle)
}

#[test]
fn served_results_bit_identical_to_run_batch_for_every_registry_model() {
    let (addr, handle) = spawn_server(ServeConfig { workers: 2, ..ServeConfig::default() });
    let mut client = Client::connect(addr).expect("client connects");

    let info = client.hello().expect("hello");
    let models: Vec<&str> = ProcModel::ALL.iter().map(|m| m.label()).collect();
    assert_eq!(info.models, models, "server warms the whole registry, in order");

    // Submit all models × all six kernels up front, collect later: the
    // inbox must pair streamed completions back up regardless of order.
    let workloads = Workload::suite(0.0);
    let mut jobs = Vec::new();
    for &model in &ProcModel::ALL {
        for (w, workload) in workloads.iter().enumerate() {
            let (job_id, admission) =
                client.submit(model.label(), &workload.program, MAX_CYCLES).expect("submit");
            assert_eq!(admission, Admission::Accepted, "queue capacity covers the suite");
            jobs.push((job_id, model, w));
        }
    }

    for (job_id, model, w) in jobs {
        let workload = &workloads[w];
        let served = client.collect(job_id).expect("collect");
        // The in-process gold run: same compiled model, same program,
        // through the run_batch seam the guarantee is anchored to.
        let local = CompiledSim::of(model)
            .run_batch(std::slice::from_ref(&workload.program), MAX_CYCLES, &BatchRunner::new(1))
            .remove(0);
        assert_eq!(
            served.result.exit,
            Some(workload.expected),
            "{}/{}",
            model.label(),
            workload.kernel
        );
        assert_eq!(served.result, local.result, "{}/{} result", model.label(), workload.kernel);
        assert_eq!(served.stats, local.stats, "{}/{} Stats", model.label(), workload.kernel);
        assert_eq!(served.sched, local.sched, "{}/{} SchedStats", model.label(), workload.kernel);
    }

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("server thread joins cleanly");
}

#[test]
fn full_admission_queue_answers_busy_not_buffering() {
    // workers: 0 makes backpressure deterministic — nothing drains the
    // queue, so exactly `queue_capacity` submissions are accepted.
    let (addr, handle) =
        spawn_server(ServeConfig { workers: 0, queue_capacity: 2, ..ServeConfig::default() });
    let mut client = Client::connect(addr).expect("client connects");
    let program = &Workload::suite(0.0)[0].program;

    let (_, first) = client.submit("strongarm", program, MAX_CYCLES).expect("submit 1");
    let (_, second) = client.submit("strongarm", program, MAX_CYCLES).expect("submit 2");
    let (_, third) = client.submit("strongarm", program, MAX_CYCLES).expect("submit 3");
    assert_eq!(first, Admission::Accepted);
    assert_eq!(second, Admission::Accepted);
    assert_eq!(third, Admission::Busy, "a full queue is a typed reply, not a buffer");

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("server drains queued-but-unrun jobs and exits");
}

#[test]
fn unknown_model_fails_the_job_not_the_connection() {
    let (addr, handle) = spawn_server(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut client = Client::connect(addr).expect("client connects");
    let workload = &Workload::suite(0.0)[0];

    let err = client.submit("pentium4", &workload.program, MAX_CYCLES).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("pentium4") && msg.contains("strongarm"),
        "diagnostic lists models: {msg}"
    );

    // The connection survives a failed job.
    let (job_id, admission) =
        client.submit("strongarm", &workload.program, MAX_CYCLES).expect("submit after failure");
    assert_eq!(admission, Admission::Accepted);
    let outcome = client.collect(job_id).expect("collect");
    assert_eq!(outcome.result.exit, Some(workload.expected));

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("server joins");
}
