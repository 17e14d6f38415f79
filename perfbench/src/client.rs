//! Classify clients: an open-loop client that sends on a fixed schedule
//! and drains as it goes, and a closed-loop client that sends
//! queue-sized micro-batches back to back.

use crate::trace::{now, Tracer, MAIN};
use rpdbscan_serve::{Classification, Request, Response, ServeError, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What the open-loop client measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Requests due (submitted or rejected).
    pub attempted: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests that failed in any other way (errors, missing answers).
    pub errors: u64,
    /// Scheduled send to answer, per answered request, ms.
    pub latency_ms: Vec<f64>,
    /// Scheduled send to drain start, per answered request, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Duration of each drain call, ms.
    pub drain_ms: Vec<f64>,
    /// Requests per drain call.
    pub batch_sizes: Vec<f64>,
    /// How late each send went out after its scheduled time, ms.
    pub lag_ms: Vec<f64>,
}

impl OpenLoop {
    /// Share of attempted requests answered within `limit_ms`.
    pub fn slo_frac(&self, limit_ms: f64) -> f64 {
        let ok = self.latency_ms.iter().filter(|&&l| l <= limit_ms).count();
        ok as f64 / self.attempted.max(1) as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends `queries` (cycling) at `rate` per second from `start` until
/// `until` passes or `stop` is raised, draining after every send round.
/// A traced run records each drain and each request's queue wait.
pub fn open_loop(
    server: &Server,
    queries: &[Vec<f64>],
    rate: f64,
    until: Option<Instant>,
    stop: Option<&AtomicBool>,
    tracer: &Tracer,
    parent: Option<u64>,
) -> OpenLoop {
    let mut r = OpenLoop::default();
    let start = now();
    let period = Duration::from_secs_f64(1.0 / rate);
    let mut next: u64 = 0;
    loop {
        let t = now();
        // sync: pairs with the writer's Release store; no data rides on the flag.
        let stopped = stop.is_some_and(|s| s.load(Ordering::Acquire));
        if stopped || until.is_some_and(|u| t >= u) {
            break;
        }
        let due = (t.duration_since(start).as_secs_f64() * rate).floor() as u64 + 1;
        let mut pending: Vec<(u64, Instant)> = Vec::new();
        for i in next..due {
            let scheduled = start + period.mul_f64(i as f64);
            let q = queries[i as usize % queries.len()].clone();
            r.attempted += 1;
            r.lag_ms
                .push(ms(now().saturating_duration_since(scheduled)));
            match server.submit(Request::Classify(q)) {
                Ok(_) => pending.push((i, scheduled)),
                Err(ServeError::Overloaded { .. }) => r.rejected += 1,
                Err(_) => r.errors += 1,
            }
        }
        next = due.max(next);
        if pending.is_empty() {
            let wake = start + period.mul_f64(next as f64);
            std::thread::sleep(wake.saturating_duration_since(now()));
            continue;
        }
        let d0 = now();
        let answers = server.drain();
        let d1 = now();
        let answered = match answers {
            Ok(a) => a
                .iter()
                .filter(|(_, resp)| matches!(resp, Response::Classified(_)))
                .count(),
            Err(_) => 0,
        };
        r.errors += (pending.len() - answered.min(pending.len())) as u64;
        r.drain_ms.push(ms(d1 - d0));
        r.batch_sizes.push(pending.len() as f64);
        tracer.record("serve.drain", parent, None, MAIN, d0, d1);
        for &(req, scheduled) in pending.iter().take(answered) {
            r.latency_ms
                .push(ms(d1.saturating_duration_since(scheduled)));
            r.queue_wait_ms
                .push(ms(d0.saturating_duration_since(scheduled)));
            tracer.record("serve.queue_wait", parent, Some(req), MAIN, scheduled, d0);
        }
    }
    r
}

/// A closed-loop client and what it measured. Each [`ClosedLoop::run`]
/// continues the query cycle where the previous one stopped, so a
/// workload can spread its closed-loop reads over the whole run.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub attempted: u64,
    pub failed: u64,
    pub answered: u64,
    /// Time spent inside [`ClosedLoop::run`], summed over calls.
    pub seconds: f64,
    /// `(query index, answer)` for the first answers, for the oracle check.
    pub sample: Vec<(usize, Classification)>,
    /// Answers kept in `sample`.
    keep: usize,
    /// Next query to send.
    next: usize,
}

impl ClosedLoop {
    pub fn new(keep: usize) -> Self {
        ClosedLoop {
            keep,
            ..ClosedLoop::default()
        }
    }

    pub fn qps(&self) -> f64 {
        self.answered as f64 / self.seconds.max(1e-9)
    }

    /// Sends `batch`-sized micro-batches back to back for `duration` (at
    /// least one batch).
    pub fn run(&mut self, server: &Server, queries: &[Vec<f64>], batch: usize, duration: Duration) {
        let start = now();
        let mut batches = 0;
        while batches == 0 || start.elapsed() < duration {
            batches += 1;
            let mut sent = Vec::with_capacity(batch);
            for _ in 0..batch {
                let qi = self.next % queries.len();
                self.next += 1;
                self.attempted += 1;
                match server.submit(Request::Classify(queries[qi].clone())) {
                    Ok(_) => sent.push(qi),
                    Err(_) => self.failed += 1,
                }
            }
            match server.drain() {
                Ok(answers) => {
                    for (&qi, (_, resp)) in sent.iter().zip(&answers) {
                        match resp {
                            Response::Classified(c) => {
                                self.answered += 1;
                                if self.sample.len() < self.keep {
                                    self.sample.push((qi, c.clone()));
                                }
                            }
                            _ => self.failed += 1,
                        }
                    }
                    self.failed += sent.len().saturating_sub(answers.len()) as u64;
                }
                Err(_) => self.failed += sent.len() as u64,
            }
        }
        self.seconds += start.elapsed().as_secs_f64();
    }
}
