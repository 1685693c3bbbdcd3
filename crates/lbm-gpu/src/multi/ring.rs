//! What a sharded step runs on and can fail with: the [`Ring`] — the device
//! of every [`Slabs`](super::Slabs) body — and the part of the host only a
//! ring can answer.
//!
//! A ring is a `MultiGpu`, the [`HaloRetryPolicy`] of its links and the
//! retries taken so far; a step on it can fail on a link
//! ([`Sim::try_step`], mirrored into [`StepError`] for the `Simulation`
//! surface). Single-device hosts carry none of this.

use crate::driver::{Device, DriverBody, Sim};
use gpu_sim::interconnect::{LinkError, MultiGpu};
use gpu_sim::{DeviceSpec, FaultPlan};
use lbm_core::StepError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Mirror a substrate [`LinkError`] into the core [`StepError`].
///
/// A free function rather than `From`: both types live in other crates, so
/// the orphan rule forbids the impl.
pub(crate) fn step_error_from_link(e: LinkError) -> StepError {
    match e {
        LinkError::Down {
            from,
            to,
            permanent,
        } => StepError::Link {
            from,
            to,
            permanent,
        },
        LinkError::NoRoute { from, to } => StepError::NoRoute { from, to },
    }
}

/// Bounded-backoff retry policy for halo transfers over faulty links.
#[derive(Clone, Copy, Debug)]
pub struct HaloRetryPolicy {
    /// Total attempts per transfer, first try included (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry, capped at 64×.
    pub backoff_base_us: u64,
}

impl Default for HaloRetryPolicy {
    fn default() -> Self {
        HaloRetryPolicy {
            max_attempts: 3,
            backoff_base_us: 20,
        }
    }
}

/// Record one halo transfer with bounded retries. Transient link failures
/// back off (capped exponential) and retry; a permanent failure or missing
/// route is surfaced immediately. A failed attempt records zero bytes (the
/// fault check precedes the tally in `MultiGpu::try_record_transfer`), so a
/// successful retry tallies exactly once.
pub(crate) fn transfer_with_retry(
    mg: &MultiGpu,
    from: usize,
    to: usize,
    bytes: u64,
    policy: &HaloRetryPolicy,
    retries: &AtomicU64,
) -> Result<(), LinkError> {
    assert!(policy.max_attempts >= 1, "at least one attempt is required");
    let mut failures = 0u32;
    loop {
        match mg.try_record_transfer(from, to, bytes) {
            Ok(()) => return Ok(()),
            Err(
                e @ (LinkError::NoRoute { .. }
                | LinkError::Down {
                    permanent: true, ..
                }),
            ) => {
                return Err(e);
            }
            Err(e) => {
                failures += 1;
                if failures >= policy.max_attempts {
                    return Err(e);
                }
                retries.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = mg.obs() {
                    let link = format!("{from}->{to}");
                    o.metrics
                        .counter_add("halo_retries", &[("link", link.as_str())], 1);
                    o.events.record(
                        obs::EventKind::HaloRetry,
                        None,
                        "",
                        &[("link", link.clone()), ("attempt", failures.to_string())],
                    );
                }
                let backoff = policy.backoff_base_us << (failures - 1).min(6);
                std::thread::sleep(std::time::Duration::from_micros(backoff));
            }
        }
    }
}

/// The devices of a sharded driver: one per shard joined ring-wise, the
/// retry policy of their links and the retries taken so far.
pub struct Ring {
    mg: MultiGpu,
    retry: HaloRetryPolicy,
    halo_retries: AtomicU64,
}

impl Ring {
    /// `n` devices of one spec joined with the vendor's preset link.
    pub(crate) fn new(device: DeviceSpec, n: usize) -> Self {
        Ring {
            mg: MultiGpu::ring(device, n),
            retry: HaloRetryPolicy::default(),
            halo_retries: AtomicU64::new(0),
        }
    }

    /// What a sharded body sees of the ring during step `t`.
    pub(crate) fn cx(&self, t: u64) -> StepCx<'_> {
        StepCx {
            mg: &self.mg,
            t,
            retry: &self.retry,
            retries: &self.halo_retries,
        }
    }
}

impl Device for Ring {
    fn with_cpu_threads(mut self, n: usize) -> Self {
        self.mg = self.mg.with_cpu_threads(n);
        self
    }
    fn with_parallel_threshold(mut self, items: usize) -> Self {
        self.mg = self.mg.with_parallel_threshold(items);
        self
    }
    fn set_obs(&mut self, obs: Arc<obs::Obs>) {
        self.mg.set_obs(obs)
    }
    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.mg.set_fault_plan(plan)
    }
    fn host_split(&self, nodes: usize) -> usize {
        self.mg.device(0).host_split(nodes / self.mg.num_devices())
    }
    fn halo_retries(&self) -> u64 {
        self.halo_retries.load(Ordering::Relaxed)
    }
}

/// What a sharded body sees of its host during one step.
pub(crate) struct StepCx<'a> {
    /// The ring: shard `r` launches on `mg.device(r)`.
    pub mg: &'a MultiGpu,
    /// Completed steps — the step being computed reads time `t`.
    pub t: u64,
    retry: &'a HaloRetryPolicy,
    retries: &'a AtomicU64,
}

impl StepCx<'_> {
    /// Record transfer `k` of an exchange on the interconnect under the
    /// host's retry policy (see [`transfer_with_retry`]) — unless an earlier
    /// attempt at the same exchange already did: `sent` counts the transfers
    /// that got through, and the caller zeroes it when the exchange is
    /// complete.
    pub fn transfer(
        &self,
        k: usize,
        sent: &mut usize,
        from: usize,
        to: usize,
        bytes: u64,
    ) -> Result<(), LinkError> {
        if k >= *sent {
            transfer_with_retry(self.mg, from, to, bytes, self.retry, self.retries)?;
            *sent = k + 1;
        }
        Ok(())
    }

    /// A `halo/halo-exchange` span, if a hub is attached.
    pub fn halo_span(&self) -> Option<obs::Span<'_>> {
        self.mg
            .obs()
            .map(|o| o.tracer.span("halo", "halo-exchange"))
    }
}

/// What only a host on a ring can answer.
impl<B: DriverBody<Dev = Ring>> Sim<B> {
    /// Override the halo-transfer retry policy.
    pub fn with_halo_retry(mut self, policy: HaloRetryPolicy) -> Self {
        self.dev.retry = policy;
        self
    }

    /// Halo-transfer retries performed so far.
    pub fn halo_retries(&self) -> u64 {
        self.dev.halo_retries()
    }

    /// Advance one timestep, surfacing halo-link failures. On `Err` the
    /// step counter has not advanced and a later call retries the step
    /// bitwise-identically (see [`DriverBody::advance`]).
    pub fn try_step(&mut self) -> Result<(), LinkError> {
        self.advance()
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.dev.mg.num_devices()
    }

    /// The interconnect (link byte counters, report).
    pub fn interconnect(&self) -> &MultiGpu {
        &self.dev.mg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_error_mirrors_into_step_error() {
        let e = step_error_from_link(LinkError::Down {
            from: 0,
            to: 1,
            permanent: true,
        });
        assert!(matches!(
            e,
            StepError::Link {
                from: 0,
                to: 1,
                permanent: true
            }
        ));
        let e = step_error_from_link(LinkError::NoRoute { from: 2, to: 0 });
        assert!(matches!(e, StepError::NoRoute { from: 2, to: 0 }));
    }
}
