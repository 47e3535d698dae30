//! Execution drivers for the scheduler state machine.
//!
//! * [`sim`] — a deterministic discrete-event executor in virtual time,
//!   paired with [`aim_llm::SimServer`]; this is the paper's replay-mode
//!   benchmark path (§4.1) and what all experiments use.
//! * [`threaded`] — a real controller/worker runtime over OS threads and
//!   blocking [`aim_llm::LlmBackend`] calls; Algorithm 3 in the flesh
//!   (workers pull ready clusters, run the members on a persistent
//!   process-wide member pool, commit, acknowledge).

//! * [`spec_sim`] — the discrete-event executor driving the *speculative*
//!   scheduler ([`crate::spec`]): poisoned results are discarded and
//!   re-executed, and the wasted LLM work is accounted in the report.
//! * [`hybrid`] — background replay plus an injected latency-critical
//!   interactive request stream on the same serving engine (§6's hybrid
//!   interactive/offline deployment).

pub mod hybrid;
mod pool;
pub mod sim;
pub mod spec_sim;
pub mod threaded;
