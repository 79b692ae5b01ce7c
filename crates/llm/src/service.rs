//! The LLM web-service interface and its simulator.

use serde::{Deserialize, Serialize};

use crate::{CostModel, LatencyModel, Result};

/// A request to the LLM web service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LlmRequest {
    /// The user's query text.
    pub query: String,
    /// Conversation history preceding the query (oldest first), used for
    /// contextual queries.
    pub context: Vec<String>,
    /// Maximum number of response tokens (the paper limits responses to 50
    /// tokens in the latency experiment).
    pub max_tokens: usize,
}

impl LlmRequest {
    /// Creates a standalone request.
    pub fn standalone(query: impl Into<String>, max_tokens: usize) -> Self {
        Self {
            query: query.into(),
            context: Vec::new(),
            max_tokens,
        }
    }

    /// Creates a contextual request carrying conversation history.
    pub fn contextual(query: impl Into<String>, context: Vec<String>, max_tokens: usize) -> Self {
        Self {
            query: query.into(),
            context,
            max_tokens,
        }
    }

    /// Rough token count of the prompt (query + context), using the common
    /// ~4-characters-per-token heuristic.
    pub fn input_tokens(&self) -> usize {
        let chars: usize = self.query.len() + self.context.iter().map(|c| c.len()).sum::<usize>();
        (chars / 4).max(1)
    }
}

/// A response from the LLM web service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LlmResponse {
    /// Generated response text.
    pub text: String,
    /// Number of generated tokens.
    pub output_tokens: usize,
    /// Simulated wall-clock latency of the call, in seconds.
    pub latency_s: f64,
    /// Cost charged for this call, in US dollars.
    pub cost_usd: f64,
}

/// Anything that can answer LLM queries: the simulator here, or a real
/// HTTP-backed client in a deployment.
pub trait LlmService {
    /// Generates a response for the request.
    ///
    /// # Errors
    /// Returns [`crate::LlmError`] e.g. when a quota is exhausted.
    fn generate(&mut self, request: &LlmRequest) -> Result<LlmResponse>;

    /// Total number of requests served so far.
    fn requests_served(&self) -> u64;

    /// Total simulated busy time, in seconds (a proxy for provider load;
    /// the paper's motivation includes reducing service-provider load).
    fn busy_time_s(&self) -> f64;
}

/// Configuration of the [`SimulatedLlm`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SimulatedLlmConfig {
    /// Latency model of the remote service.
    pub latency: LatencyModel,
    /// Pricing model.
    pub cost: CostModel,
    /// Seed namespace: responses and latencies are deterministic functions of
    /// (seed, query), so experiments are reproducible.
    pub seed: u64,
}

/// Deterministic LLM simulator.
///
/// The response text is a deterministic function of the query and its
/// context, so (a) two semantically identical requests always receive the
/// same response, and (b) a *contextual* query issued under different
/// contexts receives *different* responses — the property the contextual
/// experiments (Section IV-C) rely on to detect wrong cache hits.
#[derive(Debug, Clone)]
pub struct SimulatedLlm {
    config: SimulatedLlmConfig,
    requests: u64,
    busy_time_s: f64,
}

impl SimulatedLlm {
    /// Creates a simulator.
    ///
    /// # Errors
    /// Returns [`crate::LlmError::InvalidConfig`] when the latency model is invalid.
    pub fn new(config: SimulatedLlmConfig) -> Result<Self> {
        config.latency.validate()?;
        Ok(Self {
            config,
            requests: 0,
            busy_time_s: 0.0,
        })
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &SimulatedLlmConfig {
        &self.config
    }

    /// Deterministic 64-bit fingerprint of a request (query + context).
    fn fingerprint(&self, request: &LlmRequest) -> u64 {
        let mut h = 0xcbf29ce484222325u64 ^ self.config.seed;
        let mut absorb = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x100000001b3);
        };
        for c in &request.context {
            absorb(c.as_bytes());
        }
        absorb(request.query.as_bytes());
        h
    }

    /// Deterministic response text built from the fingerprint. The text
    /// embeds the fingerprint so tests can verify that (query, context)
    /// uniquely determines the response.
    fn response_text(&self, request: &LlmRequest, fingerprint: u64) -> (String, usize) {
        let vocabulary = [
            "the",
            "model",
            "suggests",
            "using",
            "a",
            "simple",
            "approach",
            "first",
            "then",
            "refining",
            "it",
            "with",
            "more",
            "detail",
            "and",
            "examples",
            "to",
            "cover",
            "edge",
            "cases",
            "finally",
            "validate",
            "results",
            "carefully",
            "before",
            "use",
        ];
        let target_tokens = request.max_tokens.clamp(1, 512);
        let mut words = Vec::with_capacity(target_tokens);
        words.push(format!("[ref:{fingerprint:016x}]"));
        let mut state = fingerprint | 1;
        while words.len() < target_tokens {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let idx = (state >> 33) as usize % vocabulary.len();
            words.push(vocabulary[idx].to_string());
        }
        let tokens = words.len();
        (words.join(" "), tokens)
    }
}

impl LlmService for SimulatedLlm {
    fn generate(&mut self, request: &LlmRequest) -> Result<LlmResponse> {
        let fingerprint = self.fingerprint(request);
        let (text, output_tokens) = self.response_text(request, fingerprint);
        let latency_s = self
            .config
            .latency
            .sample_latency_s(output_tokens, fingerprint);
        let cost_usd = self
            .config
            .cost
            .cost_usd(request.input_tokens(), output_tokens);
        self.requests += 1;
        self.busy_time_s += latency_s;
        Ok(LlmResponse {
            text,
            output_tokens,
            latency_s,
            cost_usd,
        })
    }

    fn requests_served(&self) -> u64 {
        self.requests
    }

    fn busy_time_s(&self) -> f64 {
        self.busy_time_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_requests_get_identical_responses() {
        let mut llm = SimulatedLlm::new(SimulatedLlmConfig::default()).unwrap();
        let req = LlmRequest::standalone("draw a line plot in python", 50);
        let a = llm.generate(&req).unwrap();
        let b = llm.generate(&req).unwrap();
        assert_eq!(a.text, b.text);
        assert_eq!(a.output_tokens, 50);
        assert_eq!(llm.requests_served(), 2);
        assert!(llm.busy_time_s() > 0.0);
    }

    #[test]
    fn different_queries_get_different_responses() {
        let mut llm = SimulatedLlm::new(SimulatedLlmConfig::default()).unwrap();
        let a = llm
            .generate(&LlmRequest::standalone("draw a line plot in python", 50))
            .unwrap();
        let b = llm
            .generate(&LlmRequest::standalone("what is the capital of france", 50))
            .unwrap();
        assert_ne!(a.text, b.text);
    }

    #[test]
    fn same_query_under_different_context_gets_different_responses() {
        // The key contextual-query property (Section II): "Change the color
        // to red" must be answered differently depending on what it follows.
        let mut llm = SimulatedLlm::new(SimulatedLlmConfig::default()).unwrap();
        let under_line = LlmRequest::contextual(
            "change the color to red",
            vec!["draw a line plot in python".into()],
            50,
        );
        let under_circle =
            LlmRequest::contextual("change the color to red", vec!["draw a circle".into()], 50);
        let a = llm.generate(&under_line).unwrap();
        let b = llm.generate(&under_circle).unwrap();
        assert_ne!(a.text, b.text);
    }

    #[test]
    fn latency_reflects_token_count_and_cost_is_positive() {
        let mut llm = SimulatedLlm::new(SimulatedLlmConfig {
            latency: LatencyModel {
                jitter_sigma: 0.0,
                ..LatencyModel::default()
            },
            ..SimulatedLlmConfig::default()
        })
        .unwrap();
        let short = llm.generate(&LlmRequest::standalone("hello", 10)).unwrap();
        let long = llm.generate(&LlmRequest::standalone("hello", 200)).unwrap();
        assert!(long.latency_s > short.latency_s);
        assert!(long.cost_usd > short.cost_usd);
        assert!(short.cost_usd > 0.0);
    }

    #[test]
    fn max_tokens_is_clamped() {
        let mut llm = SimulatedLlm::new(SimulatedLlmConfig::default()).unwrap();
        let r = llm.generate(&LlmRequest::standalone("x", 0)).unwrap();
        assert_eq!(r.output_tokens, 1);
        let r = llm.generate(&LlmRequest::standalone("x", 10_000)).unwrap();
        assert_eq!(r.output_tokens, 512);
    }

    #[test]
    fn input_tokens_counts_query_and_context() {
        let standalone = LlmRequest::standalone("a".repeat(40), 50);
        let contextual = LlmRequest::contextual("a".repeat(40), vec!["b".repeat(80)], 50);
        assert_eq!(standalone.input_tokens(), 10);
        assert_eq!(contextual.input_tokens(), 30);
        assert_eq!(LlmRequest::standalone("", 5).input_tokens(), 1);
    }

    #[test]
    fn invalid_latency_config_is_rejected() {
        let cfg = SimulatedLlmConfig {
            latency: LatencyModel {
                per_token_s: -1.0,
                ..LatencyModel::default()
            },
            ..SimulatedLlmConfig::default()
        };
        assert!(SimulatedLlm::new(cfg).is_err());
    }

    #[test]
    fn different_seeds_change_response_namespace() {
        let mut a = SimulatedLlm::new(SimulatedLlmConfig {
            seed: 1,
            ..SimulatedLlmConfig::default()
        })
        .unwrap();
        let mut b = SimulatedLlm::new(SimulatedLlmConfig {
            seed: 2,
            ..SimulatedLlmConfig::default()
        })
        .unwrap();
        let req = LlmRequest::standalone("same query", 30);
        assert_ne!(
            a.generate(&req).unwrap().text,
            b.generate(&req).unwrap().text
        );
    }
}
