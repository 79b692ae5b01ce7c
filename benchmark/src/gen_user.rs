//! Trace generator for `user_local`: one user's conversations against a
//! small cache that evicts in steady state.
//!
//! The user opens conversations (a novel standalone query, a topic or a
//! filler request), follows some of them up ("make it shorter" — lexically
//! the same follow-up other conversations already cached, so only the
//! context chain tells them apart), and re-asks recent ones in other words.
//! Every query that is labelled a miss is inserted afterwards, as is every
//! query the cache missed: the cache fills to capacity during warm-up and
//! evicts from then on.
//!
//! ## Why the labels stay true while entries are evicted
//!
//! The cache evicts its least recently used *unreferenced* entry. An entry
//! `E` can therefore only go once every other unreferenced resident entry is
//! more recent than it, and one recency event (a hit's touch, or an insert)
//! makes at most one entry more recent. With at most [`MAX_PARENTS`] entries
//! protected as parents, `E` survives at least `CAPACITY − 1 − MAX_PARENTS`
//! events after its last guaranteed insert or touch. The generator counts
//! events conservatively (a labelled-miss query may touch on a false hit
//! *and* insert: two events) and labels a repeat "should hit" only inside
//! that window. A topic is reused as *novel* only after [`COOL_DOWN`]
//! guaranteed inserts without a deliberate probe, by when the LRU has
//! certainly dropped it. The unit test replays the trace against an ideal
//! cache model and checks both directions.

use crate::corpus::{filler, filler_paraphrase, Corpus, Rng};
use crate::plan::{Insert, Lookup, RESPONSE_LEN};

/// Cache capacity of the workload (entries).
pub const CAPACITY: usize = 1_500;
/// Entries inserted before measurement starts.
pub const PREFILL: usize = 1_200;
/// Upper bound on simultaneously protected parent entries (checked by the
/// ideal-model test; the steady state sits near 300).
pub const MAX_PARENTS: usize = 700;
/// Recency events an entry is guaranteed to survive.
const WINDOW_EVENTS: u64 = (CAPACITY - 1 - MAX_PARENTS) as u64;
/// Guaranteed inserts after which an unprobed topic is certainly evicted.
const COOL_DOWN: u64 = 2 * CAPACITY as u64;

/// Share of queries that re-ask a cached standalone query / a cached
/// follow-up in its own conversation: together the 31 % repeat ratio of the
/// paper's user study.
const P_REPEAT_STANDALONE: f64 = 0.155;
const P_REPEAT_CONTEXTUAL: f64 = 0.155;
/// Share of queries that follow up a recent conversation for the first time
/// (labelled miss: the same follow-up is cached, but under other parents).
const P_NEW_FOLLOWUP: f64 = 0.14;
/// Share of novel standalone queries that are TopicBank topics (when one is
/// eligible); the rest are unique filler requests.
const P_NOVEL_IS_TOPIC: f64 = 0.10;

/// First filler id this workload uses for novel requests.
const FILLER_BASE: u64 = 1_000_000;

/// One step of the user's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserQuery {
    pub lookup: Lookup,
    /// Insert the query after the lookup even if it hit: a labelled-miss
    /// query goes to the LLM either way (a false hit is rejected by the
    /// user). Labelled-hit queries are inserted only when the cache missed.
    pub force_insert: bool,
}

impl UserQuery {
    /// The insert that follows the lookup when one is due.
    pub fn fill(&self) -> Insert {
        Insert::with_context(self.lookup.text.clone(), self.lookup.context.clone())
    }
}

/// Prefill plus the measured trace.
pub struct UserPlan {
    pub prefill: Vec<Insert>,
    pub queries: Vec<UserQuery>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Root {
    Topic { id: usize, variant: usize },
    Filler { id: u64 },
}

#[derive(Debug, Clone)]
struct Conversation {
    root: Root,
    /// Event count at the root entry's last guaranteed insert or touch.
    root_fresh: u64,
    /// `(follow-up intent, cached variant, event count when last fresh)`.
    child: Option<(usize, usize, u64)>,
}

struct Generator<'a> {
    corpus: &'a Corpus,
    rng: Rng,
    events: u64,
    inserts: u64,
    next_filler: u64,
    steps: u64,
    /// Recent conversations, oldest first.
    hot: Vec<Conversation>,
    /// Per topic: guaranteed-insert count at its last deliberate probe, or
    /// `None` if never used.
    topic_last_probe: Vec<Option<u64>>,
}

impl<'a> Generator<'a> {
    fn root_text(&self, root: Root) -> String {
        match root {
            Root::Topic { id, variant } => {
                self.corpus.bank.topic(id).paraphrase(variant).to_string()
            }
            Root::Filler { id } => filler(id),
        }
    }

    /// How the user re-states the root when returning to the conversation.
    fn root_rephrased(&mut self, root: Root) -> String {
        match root {
            Root::Topic { id, variant } => {
                let topic = self.corpus.bank.topic(id);
                let other = (variant + 1 + self.rng.below(topic.variant_count() - 1))
                    % topic.variant_count();
                topic.paraphrase(other).to_string()
            }
            Root::Filler { id } => filler(id),
        }
    }

    fn fresh(&self, since: u64) -> bool {
        self.events - since <= WINDOW_EVENTS
    }

    /// Forgets conversations whose entries are past their guaranteed window.
    fn drop_stale(&mut self) {
        let events = self.events;
        let fresh = |since: u64| events - since <= WINDOW_EVENTS;
        self.hot
            .retain(|c| fresh(c.root_fresh) || c.child.is_some_and(|(_, _, at)| fresh(at)));
    }

    /// Index of a random hot conversation satisfying `eligible`.
    fn pick(&mut self, eligible: impl Fn(&Self, &Conversation) -> bool) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.hot.len())
            .filter(|&i| eligible(self, &self.hot[i]))
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[self.rng.below(candidates.len())])
        }
    }

    fn eligible_topic(&mut self) -> Option<usize> {
        let n = self.topic_last_probe.len();
        let start = self.rng.below(n);
        (0..n)
            .map(|k| (start + k) % n)
            .find(|&id| self.topic_last_probe[id].is_none_or(|at| self.inserts - at >= COOL_DOWN))
    }

    fn novel_standalone(&mut self) -> UserQuery {
        let topic = if self.rng.chance(P_NOVEL_IS_TOPIC) {
            self.eligible_topic()
        } else {
            None
        };
        let root = match topic {
            Some(id) => Root::Topic {
                id,
                variant: self.rng.below(self.corpus.bank.topic(id).variant_count()),
            },
            None => {
                self.next_filler += 1;
                Root::Filler {
                    id: self.next_filler,
                }
            }
        };
        self.note_novel(root);
        self.hot.push(Conversation {
            root,
            root_fresh: self.events,
            child: None,
        });
        UserQuery {
            lookup: Lookup {
                text: self.root_text(root),
                context: Vec::new(),
                should_hit: false,
                verbatim: None,
            },
            force_insert: true,
        }
    }

    /// Bookkeeping of a labelled-miss query: a possible false-hit touch plus
    /// the guaranteed insert.
    fn note_novel(&mut self, root: Root) {
        self.events += 2;
        self.inserts += 1;
        if let Root::Topic { id, .. } = root {
            self.topic_last_probe[id] = Some(self.inserts);
        }
    }

    fn note_repeat(&mut self, root: Root) {
        self.events += 1;
        if let Root::Topic { id, .. } = root {
            self.topic_last_probe[id] = Some(self.inserts);
        }
    }

    fn new_followup(&mut self, at: usize) -> UserQuery {
        let intent = self.rng.below(self.corpus.followups.len());
        let variant = self.rng.below(self.corpus.followups[intent].len());
        let root = self.hot[at].root;
        self.note_novel(root);
        self.hot[at].child = Some((intent, variant, self.events));
        UserQuery {
            lookup: Lookup {
                text: self.corpus.followups[intent][variant].clone(),
                context: vec![self.root_text(root)],
                should_hit: false,
                verbatim: None,
            },
            force_insert: true,
        }
    }

    fn repeat_standalone(&mut self, at: usize) -> UserQuery {
        let root = self.hot[at].root;
        self.note_repeat(root);
        self.hot[at].root_fresh = self.events;
        let (text, verbatim) = match root {
            Root::Topic { .. } => (self.root_rephrased(root), None),
            Root::Filler { id } => {
                // Half exact repeats (must return the cached response
                // verbatim), half carrier-phrase paraphrases.
                if self.rng.chance(0.5) {
                    let text = filler(id);
                    let response = crate::corpus::response_for(&text, RESPONSE_LEN);
                    (text, Some(response))
                } else {
                    let n = self.rng.below(crate::corpus::CARRIERS);
                    (filler_paraphrase(&filler(id), n), None)
                }
            }
        };
        UserQuery {
            lookup: Lookup {
                text,
                context: Vec::new(),
                should_hit: true,
                verbatim,
            },
            force_insert: false,
        }
    }

    fn repeat_contextual(&mut self, at: usize) -> UserQuery {
        let root = self.hot[at].root;
        let (intent, variant, _) = self.hot[at].child.expect("picked for its follow-up");
        self.note_repeat(root);
        self.hot[at].child = Some((intent, variant, self.events));
        let variants = &self.corpus.followups[intent];
        let other = (variant + 1 + self.rng.below(variants.len() - 1)) % variants.len();
        let text = variants[other].clone();
        UserQuery {
            lookup: Lookup {
                text,
                context: vec![self.root_rephrased(root)],
                should_hit: true,
                verbatim: None,
            },
            force_insert: false,
        }
    }

    fn step(&mut self, allow_repeats: bool) -> UserQuery {
        self.steps += 1;
        if self.steps.is_multiple_of(256) {
            self.drop_stale();
        }
        // During burn-in nothing is looked up, so the repeat shares go to
        // novel standalone queries.
        let roll = self.rng.unit();
        let repeat = if allow_repeats { roll } else { f64::INFINITY };
        if repeat < P_REPEAT_STANDALONE {
            if let Some(at) = self.pick(|g, c| g.fresh(c.root_fresh)) {
                return self.repeat_standalone(at);
            }
        } else if repeat < P_REPEAT_STANDALONE + P_REPEAT_CONTEXTUAL {
            // The child entry must be fresh; its parent is then resident too
            // (a referenced entry is never evicted before its child).
            if let Some(at) = self.pick(|g, c| c.child.is_some_and(|(_, _, at)| g.fresh(at))) {
                return self.repeat_contextual(at);
            }
        } else if roll >= 1.0 - P_NEW_FOLLOWUP {
            // The parent must still be resident for the follow-up to link.
            if let Some(at) = self.pick(|g, c| c.child.is_none() && g.fresh(c.root_fresh)) {
                return self.new_followup(at);
            }
        }
        self.novel_standalone()
    }
}

/// Generates the prefill (the inserts of a burn-in period of the same
/// process, so the measured trace starts with warm conversations) and
/// `queries` measured steps.
pub fn plan(corpus: &Corpus, seed: u64, queries: usize) -> UserPlan {
    let mut generator = Generator {
        corpus,
        rng: Rng::stream(seed, 1),
        events: 0,
        inserts: 0,
        next_filler: FILLER_BASE,
        steps: 0,
        hot: Vec::new(),
        topic_last_probe: vec![None; corpus.bank.len()],
    };
    let mut prefill = Vec::with_capacity(PREFILL);
    while prefill.len() < PREFILL {
        prefill.push(generator.step(false).fill());
    }
    let queries = (0..queries).map(|_| generator.step(true)).collect();
    UserPlan { prefill, queries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// What a text means, recovered from the corpus: the ideal cache's
    /// notion of semantic equality.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Intent {
        Topic(usize),
        Filler(u64),
        Followup(usize),
    }

    struct Meanings(HashMap<String, Intent>);

    impl Meanings {
        fn new(corpus: &Corpus) -> Self {
            let mut map = HashMap::new();
            for topic in corpus.bank.topics() {
                for v in &topic.variants {
                    map.insert(v.clone(), Intent::Topic(topic.id));
                }
            }
            for (i, variants) in corpus.followups.iter().enumerate() {
                for v in variants {
                    map.insert(v.clone(), Intent::Followup(i));
                }
            }
            Self(map)
        }

        fn of(&mut self, text: &str, filler_ids: std::ops::Range<u64>) -> Intent {
            if let Some(&intent) = self.0.get(text) {
                return intent;
            }
            // Lazily index filler texts and their carrier paraphrases.
            for id in filler_ids {
                let base = filler(id);
                for n in 0..crate::corpus::CARRIERS {
                    self.0
                        .insert(filler_paraphrase(&base, n), Intent::Filler(id));
                }
                self.0.insert(base, Intent::Filler(id));
            }
            self.0[text]
        }
    }

    #[derive(Debug, Clone)]
    struct Entry {
        intent: Intent,
        parent: Option<usize>,
        last_access: u64,
    }

    /// An ideal cache: perfect semantic decisions, the store's eviction rule
    /// (LRU among entries no resident entry names as parent).
    #[derive(Default)]
    struct IdealCache {
        entries: HashMap<usize, Entry>,
        next_id: usize,
        clock: u64,
        max_parents: usize,
    }

    impl IdealCache {
        fn find(&self, intent: Intent, context: Option<Intent>) -> Option<usize> {
            self.entries
                .iter()
                .filter(|(_, e)| {
                    e.intent == intent
                        && match (e.parent, context) {
                            (None, None) => true,
                            (Some(p), Some(ctx)) => {
                                self.entries.get(&p).is_some_and(|pe| pe.intent == ctx)
                            }
                            _ => false,
                        }
                })
                .map(|(&id, _)| id)
                .max()
        }

        fn touch(&mut self, id: usize) {
            self.clock += 1;
            self.entries.get_mut(&id).unwrap().last_access = self.clock;
        }

        fn insert(&mut self, intent: Intent, context: Option<Intent>) {
            self.clock += 1;
            let parent = context.and_then(|ctx| {
                self.entries
                    .iter()
                    .filter(|(_, e)| e.intent == ctx && e.parent.is_none())
                    .map(|(&id, _)| id)
                    .max()
            });
            if self.entries.len() >= CAPACITY {
                let referenced: std::collections::HashSet<usize> =
                    self.entries.values().filter_map(|e| e.parent).collect();
                self.max_parents = self.max_parents.max(referenced.len());
                let victim = self
                    .entries
                    .iter()
                    .filter(|(id, _)| !referenced.contains(id))
                    .min_by_key(|(&id, e)| (e.last_access, id))
                    .map(|(&id, _)| id)
                    .unwrap();
                self.entries.remove(&victim);
            }
            self.entries.insert(
                self.next_id,
                Entry {
                    intent,
                    parent,
                    last_access: self.clock,
                },
            );
            self.next_id += 1;
        }
    }

    #[test]
    fn labelled_hits_are_resident_and_labelled_misses_absent_under_eviction() {
        let corpus = Corpus::load();
        let plan = plan(&corpus, 2024, 40_000);
        assert_eq!(plan.prefill.len(), PREFILL);
        let fillers = FILLER_BASE..FILLER_BASE + 40_000;
        let mut meanings = Meanings::new(&corpus);
        let mut cache = IdealCache::default();
        for insert in &plan.prefill {
            let ctx = insert
                .context
                .last()
                .map(|c| meanings.of(c, fillers.clone()));
            cache.insert(meanings.of(&insert.text, fillers.clone()), ctx);
        }
        let (mut hits, mut repeats) = (0usize, 0usize);
        for query in &plan.queries {
            let intent = meanings.of(&query.lookup.text, fillers.clone());
            let ctx = query
                .lookup
                .context
                .last()
                .map(|c| meanings.of(c, fillers.clone()));
            let found = cache.find(intent, ctx);
            if query.lookup.should_hit {
                repeats += 1;
                assert!(
                    found.is_some(),
                    "labelled hit {:?} has no resident target",
                    query.lookup
                );
                assert!(!query.force_insert);
            } else {
                assert!(
                    found.is_none(),
                    "labelled miss {:?} has a resident equivalent",
                    query.lookup
                );
                assert!(query.force_insert);
            }
            match found {
                Some(id) => {
                    hits += 1;
                    cache.touch(id);
                }
                None => cache.insert(intent, ctx),
            }
        }
        assert_eq!(
            cache.entries.len(),
            CAPACITY,
            "the cache evicts in steady state"
        );
        assert!(cache.next_id > 3 * CAPACITY, "many evictions happened");
        assert!(
            cache.max_parents <= MAX_PARENTS,
            "{} parents",
            cache.max_parents
        );
        assert_eq!(hits, repeats);
        // The repeat share lands near the user study's 31 %.
        let share = repeats as f64 / plan.queries.len() as f64;
        assert!((0.27..=0.33).contains(&share), "repeat share {share}");
        // Both kinds of repeat, contextual misses and topics all occur.
        let contextual_hits = plan
            .queries
            .iter()
            .filter(|q| q.lookup.should_hit && !q.lookup.context.is_empty())
            .count();
        let contextual_misses = plan
            .queries
            .iter()
            .filter(|q| !q.lookup.should_hit && !q.lookup.context.is_empty())
            .count();
        let exact = plan
            .queries
            .iter()
            .filter(|q| q.lookup.verbatim.is_some())
            .count();
        assert!(contextual_hits > 3_000 && contextual_misses > 3_000 && exact > 1_000);
    }

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        let corpus = Corpus::load();
        let a = plan(&corpus, 7, 3_000);
        let b = plan(&corpus, 7, 3_000);
        let c = plan(&corpus, 8, 3_000);
        assert_eq!(a.prefill, b.prefill);
        assert_eq!(a.queries, b.queries);
        assert_ne!(a.queries, c.queries);
        // A longer trace extends a shorter one: segments are prefixes.
        let longer = plan(&corpus, 7, 4_000);
        assert_eq!(longer.queries[..3_000], a.queries[..]);
    }
}
