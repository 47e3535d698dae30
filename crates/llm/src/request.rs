use std::fmt;

use serde::{Deserialize, Serialize};

/// Unique identifier of an LLM request within one run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct RequestId(pub u64);

impl RequestId {
    /// The id of `agent`'s `call`-th LLM call (0-based) in step `step`.
    ///
    /// A pure function of the three, so a seeded run issues the same ids
    /// however its cluster members interleave — and a replayed latency
    /// keyed on the id reproduces too. Packs agent (24 bits), step
    /// (24 bits) and call (16 bits), so ids are unique within a run while
    /// each stays below its width.
    ///
    /// ```
    /// use aim_llm::RequestId;
    ///
    /// assert_eq!(RequestId::for_call(3, 7, 1), RequestId::for_call(3, 7, 1));
    /// assert_ne!(RequestId::for_call(3, 7, 1), RequestId::for_call(7, 3, 1));
    /// ```
    pub fn for_call(agent: u32, step: u32, call: u32) -> RequestId {
        debug_assert!(
            agent < 1 << 24 && step < 1 << 24 && call < 1 << 16,
            "request id fields out of range: agent {agent}, step {step}, call {call}"
        );
        RequestId(
            (u64::from(agent) & 0xff_ffff) << 40
                | (u64::from(step) & 0xff_ffff) << 16
                | u64::from(call) & 0xffff,
        )
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// The agent-loop function that produced an LLM call.
///
/// Mirrors the GenAgent cognitive loop (paper §2.1, Algorithm 2 and Fig. 1,
/// whose colored bars are exactly these categories): perception filtering,
/// memory retrieval scoring, action planning, periodic reflection, and
/// conversation turns with a closing summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum CallKind {
    /// Rank/filter perceived events for salience.
    Perceive,
    /// Score memories for recency/importance/relevance.
    Retrieve,
    /// Decide the next action / (re)plan the day.
    Plan,
    /// Synthesize higher-level insights from accumulated memories.
    Reflect,
    /// Produce one conversation utterance.
    Converse,
    /// Summarize a finished conversation into memory.
    Summarize,
    /// Anything else (custom agent programs).
    Other,
}

impl CallKind {
    /// All kinds, in display order.
    pub const ALL: [CallKind; 7] = [
        CallKind::Perceive,
        CallKind::Retrieve,
        CallKind::Plan,
        CallKind::Reflect,
        CallKind::Converse,
        CallKind::Summarize,
        CallKind::Other,
    ];

    /// Stable lowercase name (used by the trace codec).
    pub fn as_str(self) -> &'static str {
        match self {
            CallKind::Perceive => "perceive",
            CallKind::Retrieve => "retrieve",
            CallKind::Plan => "plan",
            CallKind::Reflect => "reflect",
            CallKind::Converse => "converse",
            CallKind::Summarize => "summarize",
            CallKind::Other => "other",
        }
    }

    /// Parses a name produced by [`CallKind::as_str`].
    pub fn from_str_opt(s: &str) -> Option<CallKind> {
        CallKind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Small stable index (e.g. for per-kind histograms).
    pub fn index(self) -> usize {
        CallKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind in ALL")
    }
}

impl fmt::Display for CallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Service class of a request — the hybrid-deployment distinction of
/// paper §6: latency-critical *interactive* traffic (a player talking to
/// a character) versus throughput-oriented *background* simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum Lane {
    /// Latency-critical: served ahead of background work when the server
    /// is lane-aware (see `ServerConfig::lane_aware`).
    Interactive,
    /// Throughput-oriented simulation traffic (the default).
    #[default]
    Background,
}

impl Lane {
    /// Admission rank: lower is served first (interactive = 0).
    pub fn rank(self) -> u8 {
        match self {
            Lane::Interactive => 0,
            Lane::Background => 1,
        }
    }
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Lane::Interactive => "interactive",
            Lane::Background => "background",
        })
    }
}

/// One LLM inference request as seen by the serving engine.
///
/// Token counts come from the workload trace (the paper replays traces with
/// `ignore_eos` so output lengths are fixed — §4.1); `step` doubles as the
/// scheduling priority: **lower step = more urgent** (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlmRequest {
    /// Unique id within the run.
    pub id: RequestId,
    /// Issuing agent (raw index; the engine's `AgentId` wraps this).
    pub agent: u32,
    /// Simulation step that issued the call; also the priority key.
    pub step: u64,
    /// Prompt length in tokens.
    pub input_tokens: u32,
    /// Generation length in tokens (≥ 1 is enforced by the server).
    pub output_tokens: u32,
    /// Which agent function produced the call.
    pub kind: CallKind,
    /// Service class (background simulation by default).
    pub lane: Lane,
    /// Persona template the issuing agent was instantiated from, if the
    /// world exposes one. Same-template agents share a long prompt
    /// preamble (system prompt + persona scaffold), which is what
    /// prefix-affinity routing and the per-replica prefix cache exploit.
    #[serde(default)]
    pub template: Option<u32>,
    /// Length in tokens of the preamble shared by all agents of
    /// [`LlmRequest::template`]. `0` when untemplated; always capped at
    /// `input_tokens` by consumers.
    #[serde(default)]
    pub shared_prefix_tokens: u32,
}

impl LlmRequest {
    /// Creates a background-lane request.
    pub fn new(
        id: RequestId,
        agent: u32,
        step: u64,
        input_tokens: u32,
        output_tokens: u32,
        kind: CallKind,
    ) -> Self {
        LlmRequest {
            id,
            agent,
            step,
            input_tokens,
            output_tokens,
            kind,
            lane: Lane::Background,
            template: None,
            shared_prefix_tokens: 0,
        }
    }

    /// Marks this request latency-critical (paper §6's interactive class).
    pub fn interactive(mut self) -> Self {
        self.lane = Lane::Interactive;
        self
    }

    /// Tags the request with the issuing agent's persona template and the
    /// token length of the preamble all agents of that template share —
    /// the inputs to prefix-affinity routing and the replica prefix cache.
    pub fn with_template(mut self, template: u32, shared_prefix_tokens: u32) -> Self {
        self.template = Some(template);
        self.shared_prefix_tokens = shared_prefix_tokens;
        self
    }

    /// The key prefix-affinity routing groups on: the persona template
    /// when tagged, otherwise the issuing agent alone (an agent still
    /// reuses *its own* prefix call-to-call, so keeping one agent on one
    /// replica is the best untagged fallback). Disjoint by construction —
    /// the agent fallback is namespaced above the `u32` template range.
    pub fn routing_group(&self) -> u64 {
        match self.template {
            Some(t) => t as u64,
            None => (1u64 << 32) | self.agent as u64,
        }
    }

    /// Total tokens moved for this request (input + output).
    pub fn total_tokens(&self) -> u64 {
        self.input_tokens as u64 + self.output_tokens as u64
    }
}

/// Response to an [`LlmRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlmResponse {
    /// Id of the request this answers.
    pub id: RequestId,
    /// Number of generated tokens.
    pub output_tokens: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_name_roundtrip() {
        for k in CallKind::ALL {
            assert_eq!(CallKind::from_str_opt(k.as_str()), Some(k));
        }
        assert_eq!(CallKind::from_str_opt("nope"), None);
    }

    #[test]
    fn kind_indices_are_dense() {
        for (i, k) in CallKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn request_total_tokens() {
        let r = LlmRequest::new(RequestId(1), 0, 3, 640, 20, CallKind::Plan);
        assert_eq!(r.total_tokens(), 660);
    }

    #[test]
    fn requests_default_to_background_lane() {
        let r = LlmRequest::new(RequestId(1), 0, 3, 640, 20, CallKind::Plan);
        assert_eq!(r.lane, Lane::Background);
        assert_eq!(r.interactive().lane, Lane::Interactive);
    }

    #[test]
    fn template_tagging_and_routing_groups() {
        let bare = LlmRequest::new(RequestId(1), 7, 3, 640, 20, CallKind::Plan);
        assert_eq!(bare.template, None);
        assert_eq!(bare.shared_prefix_tokens, 0);
        let tagged = bare.with_template(4, 320);
        assert_eq!(tagged.template, Some(4));
        assert_eq!(tagged.shared_prefix_tokens, 320);
        assert_eq!(tagged.routing_group(), 4);
        // Untagged requests group by agent, namespaced away from
        // template ids so the two can never collide.
        assert_eq!(bare.routing_group(), (1u64 << 32) | 7);
        assert_ne!(
            bare.routing_group(),
            LlmRequest::new(RequestId(2), 8, 3, 640, 20, CallKind::Plan).routing_group()
        );
    }

    #[test]
    fn lane_ranks_order_interactive_first() {
        assert!(Lane::Interactive.rank() < Lane::Background.rank());
        assert_eq!(Lane::default(), Lane::Background);
    }

    #[test]
    fn call_ids_are_distinct_across_fields() {
        let ids: std::collections::HashSet<RequestId> = (0..4)
            .flat_map(|a| (0..4).flat_map(move |s| (0..4).map(move |c| (a, s, c))))
            .map(|(a, s, c)| RequestId::for_call(a, s, c))
            .collect();
        assert_eq!(ids.len(), 64);
        assert_eq!(
            RequestId::for_call((1 << 24) - 1, (1 << 24) - 1, 0xffff),
            RequestId(u64::MAX)
        );
    }

    #[test]
    fn display_impls() {
        assert_eq!(RequestId(5).to_string(), "req#5");
        assert_eq!(CallKind::Converse.to_string(), "converse");
        assert_eq!(Lane::Interactive.to_string(), "interactive");
    }
}
