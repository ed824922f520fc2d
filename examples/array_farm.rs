//! Array farm: spin up the serving layer, submit a mixed stream of jobs
//! (dense MM/MV, block-sparse MV, triangular solve, Gauss–Seidel) from two
//! tenants, cancel one queued job mid-flight, and print the receipt table —
//! for every dense and block-sparse job the cycle count predicted at
//! admission by the paper's closed forms matches the measured count
//! **exactly**, and the lifecycle counters (cancelled/shed) land in the
//! final snapshot `shutdown` returns.  Both tenants also query the **same named operand** —
//! the band stages once and every later serve is a residency hit, printed
//! from the mid-run snapshot's hit ratio.  Along the way it takes a live
//! [`ArrayFarm::snapshot`] mid-run and exports the lifecycle event trace
//! as Chrome trace JSON.
//!
//! ```text
//! cargo run --release --example array_farm
//! ```

use size_independent_systolic::prelude::*;
use size_independent_systolic::runtime::{JobSpec, OperandRef};
use std::time::Duration;

fn main() -> Result<(), FarmError> {
    let w = 4;
    let farm = ArrayFarm::new(
        FarmConfig::new(w)
            .hex_workers(1)
            .linear_workers(2)
            .policy(Policy::ShortestPredictedFirst)
            // Tenant 1 (matrix products) carries twice tenant 2's weight.
            .tenant_weight(1, 2)
            .tenant_weight(2, 1),
    )?;
    println!(
        "array farm: w = {w}, {} workers, policy = {}",
        farm.workers(),
        farm.policy().label()
    );

    // A mixed job stream: two tenants' worth of heterogeneous work.
    let mut tickets = Vec::new();
    for i in 0..3u64 {
        let a = gen::random_dense_f64(12, 12, 10 + i);
        let b = gen::random_dense_f64(12, 12, 20 + i);
        tickets.push(farm.submit(JobSpec::new(Job::dense_mm(a, b)).tenant(1))?);
    }
    for i in 0..4u64 {
        let a = gen::random_dense_f64(24, 24, 30 + i);
        let x = gen::random_vector_f64(24, 40 + i);
        tickets.push(farm.submit(JobSpec::new(Job::dense_mv(a, x)).tenant(2))?);
    }
    let sparse = gen::block_sparse_f64(24, 24, w, 0.3, 50);
    tickets.push(farm.submit(
        JobSpec::new(Job::block_sparse_mv(sparse, gen::random_vector_f64(24, 51))).tenant(2),
    )?);
    let l = gen::lower_triangular_f64(12, 60);
    let c = gen::random_vector_f64(12, 61);
    tickets.push(farm.submit(Job::TriangularSolve {
        a: l,
        c,
        lower: true,
    })?);
    let gs_a = gen::diagonally_dominant_f64(12, 70);
    let gs_b = gen::random_vector_f64(12, 71);
    tickets.push(
        farm.submit(
            JobSpec::new(Job::GaussSeidel {
                a: gs_a,
                b: gs_b,
                tol: 1e-9,
                max_sweeps: 100,
            })
            .priority(1)
            // Deadlines are enforced at dispatch now — give the queue
            // comfortable slack so the job is ordered, not shed.
            .deadline(Duration::from_secs(5)),
        )?,
    );

    // Operand identity: both tenants query the same named model matrix.
    // The first serve stages its DBT band into a worker's cache; cache-aware
    // routing then sends every later job — whichever tenant submits it — to
    // the worker already holding the band, where serving it is an `Arc`
    // bump with zero staging cycles.
    let model = OperandRef::named(0xDA7A, gen::random_dense_f64(24, 24, 90));
    let mut model_hits = 0u32;
    for i in 0..6u64 {
        // One at a time (ping-pong between the tenants), so each serve is
        // an individual routing decision instead of one coalesced batch.
        let tenant = 1 + (i % 2) as u32;
        let receipt = farm
            .submit(
                JobSpec::new(Job::dense_mv(
                    model.clone(),
                    gen::random_vector_f64(24, 90 + i),
                ))
                .tenant(tenant),
            )?
            .wait()?;
        model_hits += u32::from(receipt.operand_hit);
    }
    println!(
        "shared operand 0x{:X}: 6 jobs from 2 tenants, {model_hits} of 6 serves found \
         the band already resident (the misses staged it, once per worker touched)",
        model.key()
    );

    // Lifecycle: submit one more job and cancel it while it queues.  If the
    // cancel wins the race against dispatch, the job never touches an
    // array and its ticket resolves to `FarmError::Cancelled`.
    let doomed = farm.submit(
        JobSpec::new(Job::dense_mv(
            gen::random_dense_f64(24, 24, 80),
            gen::random_vector_f64(24, 81),
        ))
        .tenant(2),
    )?;
    let doomed_id = doomed.id();
    let cancel_won = doomed.cancel();
    match doomed.wait() {
        Err(FarmError::Cancelled) => {
            assert!(cancel_won);
            println!("job {doomed_id} cancelled while queued — it never ran");
        }
        Ok(receipt) => {
            assert!(!cancel_won);
            println!("job {} was dispatched before the cancel landed", receipt.id);
        }
        Err(e) => return Err(e),
    }

    // Mid-run observability: snapshot the live farm without pausing it.
    // Everything here comes from lock-free counters and preallocated
    // histograms the workers publish as they serve.
    let mid = farm.snapshot();
    println!(
        "\nlive snapshot at {:.2} ms: {} submitted, {} completed, {} queued, \
         {} trace events ({} dropped)",
        mid.at.as_secs_f64() * 1e3,
        mid.submitted,
        mid.completed(),
        mid.depth,
        mid.trace_recorded,
        mid.trace_dropped
    );
    if mid.completed() > 0 {
        let e2e = mid.e2e_latency();
        println!(
            "  e2e latency so far: p50 {:.1} us, p95 {:.1} us (log-bucketed)",
            e2e.percentile(0.50) as f64 / 1e3,
            e2e.percentile(0.95) as f64 / 1e3
        );
    }
    println!(
        "  operand residency so far: {} hits / {} misses ({:.0}% hit ratio), \
         {} staging cycles, {} evictions",
        mid.operand_hits(),
        mid.operand_misses(),
        mid.operand_hit_ratio() * 100.0,
        mid.staging_cycles(),
        mid.operand_evictions()
    );

    println!(
        "\n{:>4}  {:<12} {:>6} {:>6} {:>11} {:>10} {:>9} {:>9}  exact?",
        "id", "kind", "tenant", "worker", "T predicted", "T measured", "queue us", "serve us"
    );
    let mut receipts: Vec<JobReceipt> = tickets
        .into_iter()
        .map(|t| t.wait())
        .collect::<Result<_, _>>()?;
    receipts.sort_by_key(|r| r.id);
    for r in &receipts {
        println!(
            "{:>4}  {:<12} {:>6} {:>6} {:>11} {:>10} {:>9.1} {:>9.1}  {}",
            r.id,
            r.kind.label(),
            r.tenant,
            r.worker,
            r.predicted.cycles,
            r.measured_cycles,
            r.queue.as_secs_f64() * 1e6,
            r.service.as_secs_f64() * 1e6,
            if r.prediction_exact() {
                "yes"
            } else if r.predicted.exact {
                "NO"
            } else {
                "estimate"
            },
        );
    }

    // Export the lifecycle trace the event rings captured — open the file
    // in `chrome://tracing` or Perfetto to see per-worker job spans.
    let events = farm.trace_events();
    let trace_path = std::env::temp_dir().join("array_farm_trace.json");
    match std::fs::write(
        &trace_path,
        size_independent_systolic::runtime::export::chrome_trace_json(&events),
    ) {
        Ok(()) => println!(
            "\nwrote {} lifecycle events to {}",
            events.len(),
            trace_path.display()
        ),
        Err(err) => println!("\ncould not write {}: {err}", trace_path.display()),
    }

    let last = farm.shutdown();
    println!(
        "\nfarm: {} jobs in {:.2} ms, {} steals, {} cancelled, {} shed, max queue depth {}",
        last.completed(),
        last.at.as_secs_f64() * 1e3,
        last.steals,
        last.cancelled,
        last.shed(),
        last.max_depth
    );
    println!(
        "predicted {} vs measured {} array steps across the farm ({:.0}% of jobs exact)",
        last.predicted_cycles(),
        last.measured_cycles(),
        last.exact_prediction_fraction() * 100.0
    );
    for worker in &last.workers {
        println!(
            "  worker {} ({:<6}): {} jobs, {} array steps, busy {:.0}%",
            worker.worker,
            worker.class.label(),
            worker.jobs,
            worker.hex_cycles + worker.linear_cycles,
            worker.utilization(last.at) * 100.0
        );
    }
    let served_cycles: u64 = last.tenants.iter().map(|t| t.predicted_cycles).sum();
    for tenant in &last.tenants {
        println!(
            "  tenant {}: {} submitted, {} served, {} cancelled, {:.0}% of served cycles",
            tenant.tenant,
            tenant.submitted,
            tenant.served,
            tenant.cancelled,
            tenant.predicted_cycles as f64 / served_cycles.max(1) as f64 * 100.0
        );
    }

    // Dense predicted-vs-measured agreement is the paper's property, now a
    // serving-layer guarantee.
    assert!(receipts
        .iter()
        .filter(|r| r.predicted.exact)
        .all(JobReceipt::prediction_exact));
    Ok(())
}
