//! The seeded request streams of the three workloads.
//!
//! Everything a run sends is a pure function of `(workload, seed,
//! dataset)`, and the dataset is itself generated from the seed, so the
//! untraced run and the traced replay send the same requests. Streams
//! are built from the public codecs of `maprat-server`, so every POST
//! body is in the canonical encoding the server decodes.

use maprat_core::query::{ItemQuery, QueryTerm};
use maprat_core::SearchSettings;
use maprat_data::synth::planted::paper_scenarios;
use maprat_data::{Dataset, ItemId, Role, UsState};
use maprat_explore::ExplainRequest;
use maprat_server::api::explain_request_to_json;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use crate::client::encode;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdCatalogue,
    HotSession,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdCatalogue,
        Workload::HotSession,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCatalogue => "cold_catalogue",
            Workload::HotSession => "hot_session",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `ingest_mixed` commit schedule (one commit closes every this many
/// sessions) and batch size.
const COMMIT_EVERY: u64 = 8;
pub const COMMIT_BATCH: usize = 40;
/// `ingest_mixed` sessions (with their commits) run before timing.
/// Every commit publishes a new dataset version, and cubes rebuilt after
/// it keep that version alive, so the server's memory grows steeply over
/// the first few hundred sessions; the timed window starts after that.
const INGEST_SETTLE: u64 = 120;
/// First session and commit index of the settling sessions, far from the
/// timed run's.
const SETTLE_FROM: u64 = 1 << 32;
/// `cold_catalogue` slots per ten entries: four single titles (0), three
/// filmographies (1) and three 2–3-title ORs (2). A fixed pattern keeps
/// the mix the same however far into the stream a run gets.
const COLD_PATTERN: [u8; 10] = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0];
/// Universe tiers: a title or filmography is catalogued once per tier
/// size it reaches, tier `i` with `min_support` from 5 + `i` ×
/// `SUPPORT_STEPS` (a distinct cube), so heavily rated entries are drawn
/// more often. The first tier is the smallest universe catalogued at all;
/// with the largest-state check in [`tiered`] it keeps every explain a 200.
const TITLE_TIERS: [usize; 3] = [100, 600, 2000];
const PERSON_TIERS: [usize; 2] = [150, 2000];
/// Distinct ORs generated per run.
const COLD_ORS: usize = 6000;
/// `min_support` steps an entry takes on successive laps over its pool.
/// Each entry starts at a seeded step and goes through all of them, so
/// the first this many laps draw the same mix of steps, hence the same
/// work, however far into the stream a run gets.
const SUPPORT_STEPS: usize = 4;
/// `cold_catalogue` entries used as warm-up.
const COLD_WARMUP: usize = 40;
/// Items the server precomputes at start-up; cold entries avoid them so
/// that no cold explain can hit the cache.
const PRECOMPUTED: usize = 8;

/// What a request exercises, for per-class latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Explain,
    Interact(&'static str),
    Commit,
}

/// One request of a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub class: Class,
    pub method: &'static str,
    pub target: String,
    pub body: String,
    /// Ratings carried by a commit (0 for reads).
    pub ratings: usize,
}

/// Requests one visitor sends back to back.
pub type Session = Vec<Req>;

/// A splitmix64 generator: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    /// A generator for one numbered sub-stream, independent of the order
    /// in which sub-streams are drawn.
    pub fn derive(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.0 ^= index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Index drawn with probability proportional to `cdf` increments.
    pub fn weighted(&mut self, cdf: &[f64]) -> usize {
        pick(cdf, self.unit())
    }
}

/// The index whose `cdf` interval holds `u` (in `[0, 1)`) of the total.
fn pick(cdf: &[f64], u: f64) -> usize {
    let x = u * cdf.last().copied().unwrap_or(0.0);
    cdf.partition_point(|&c| c <= x).min(cdf.len() - 1)
}

/// Point `i` of a seeded additive-recurrence sequence in `[0, 1)`. Any run
/// of consecutive points covers `[0, 1)` evenly, so a short run draws its
/// sessions in the target proportions instead of a noisy sample of them.
fn kronecker(seed: u64, dim: u64, alpha: f64, i: u64) -> f64 {
    (Rng::derive(seed, 8, dim).unit() + alpha * i as f64).fract()
}

fn cumulative(weights: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut acc = 0.0;
    weights
        .into_iter()
        .map(|w| {
            acc += w;
            acc
        })
        .collect()
}

/// One explainable query with its GET form (when it has one).
#[derive(Debug, Clone)]
struct Query {
    query: ItemQuery,
    /// `q=…&type=…` for single-term queries.
    params: Option<String>,
}

impl Query {
    fn single(term: QueryTerm) -> Query {
        let (q, kind) = match &term {
            QueryTerm::TitleIs(t) => (t.clone(), "movie"),
            QueryTerm::Actor(a) => (a.clone(), "actor"),
            QueryTerm::Director(d) => (d.clone(), "director"),
            other => unreachable!("no GET form for {other:?}"),
        };
        Query {
            query: ItemQuery::new(term),
            params: Some(format!("q={}&type={kind}", encode(&q))),
        }
    }
}

/// Settings as GET parameters plus the typed value (defaults elsewhere).
#[derive(Debug, Clone)]
struct Setting {
    k: usize,
    coverage: f64,
    geo: bool,
    support: usize,
}

impl Setting {
    fn typed(&self) -> SearchSettings {
        SearchSettings::builder()
            .max_groups(self.k)
            .min_coverage(self.coverage)
            .require_geo(self.geo)
            .min_support(self.support)
            .build()
            .expect("benchmark settings are valid")
    }

    fn params(&self) -> String {
        format!(
            "k={}&coverage={}&geo={}&support={}",
            self.k,
            self.coverage,
            u8::from(self.geo),
            self.support
        )
    }
}

/// `hot_session`'s base settings: the precompute settings of `maprat serve`.
const HOT_BASE: Setting = Setting {
    k: 3,
    coverage: 0.2,
    geo: true,
    support: 5,
};

/// Session `i`'s `coverage`/`k` tweak. Drawn from 1604 settings per
/// query, it is almost never in the result tier, while the query's cube is
/// in the snapshot tier: the tweak is a snapshot re-solve.
fn tweak(seed: u64, i: u64) -> Setting {
    let coverage = (50 + (kronecker(seed, 1, SQRT_2_FRAC, i) * 401.0) as usize) as f64 / 1000.0;
    let k = 2 + (kronecker(seed, 2, SQRT_3_FRAC, i) * 4.0) as usize;
    Setting {
        k,
        coverage,
        geo: true,
        support: 5,
    }
}

/// Irrational steps for the session sequences (golden ratio, √2, √3).
const GOLDEN_FRAC: f64 = 0.618_033_988_749_894_8;
const SQRT_2_FRAC: f64 = 0.414_213_562_373_095_1;
const SQRT_3_FRAC: f64 = 0.732_050_807_568_877_2;

/// Session `i`'s visitor profile for `/api/v1/personalize`: one of 168
/// combinations of gender, age group and state, loose to tight, so the
/// cost of personalized mining varies smoothly across sessions.
fn profile(seed: u64, i: u64) -> String {
    const GENDERS: [&str; 2] = ["M", "F"];
    const AGES: [&str; 7] = ["", "18", "25", "35", "45", "50", "56"];
    const STATES: [&str; 12] = [
        "", "", "", "", "CA", "NY", "TX", "FL", "IL", "MA", "WA", "IN",
    ];
    let at = |dim: u64, alpha: f64, n: usize| (kronecker(seed, dim, alpha, i) * n as f64) as usize;
    let mut profile = format!("gender={}", GENDERS[at(3, GOLDEN_FRAC, 2)]);
    for (name, value) in [
        ("age", AGES[at(4, SQRT_2_FRAC, 7)]),
        ("state", STATES[at(5, SQRT_3_FRAC, 12)]),
    ] {
        if !value.is_empty() {
            write!(profile, "&{name}={value}").unwrap();
        }
    }
    profile
}

/// A workload's stream over one dataset.
pub struct Plan {
    pub workload: Workload,
    seed: u64,
    cold: Catalogue,
    hot: Vec<Query>,
    hot_cdf: Vec<f64>,
    /// Hot-set titles (commit targets) and their Zipf weights.
    hot_titles: Vec<String>,
    title_cdf: Vec<f64>,
    users: usize,
}

impl Plan {
    pub fn new(workload: Workload, dataset: &Dataset, seed: u64) -> Plan {
        let hot = hot_set(dataset);
        let hot_cdf = cumulative((1..=hot.len()).map(|r| 1.0 / r as f64));
        let hot_titles: Vec<String> = hot
            .iter()
            .filter_map(|q| match &q.query.terms[0] {
                QueryTerm::TitleIs(t) => Some(t.clone()),
                _ => None,
            })
            .collect();
        let title_cdf = cumulative((1..=hot_titles.len()).map(|r| 1.0 / r as f64));
        let cold = if workload == Workload::ColdCatalogue {
            Catalogue::new(dataset, &mut Rng::derive(seed, 2, 0))
        } else {
            Catalogue::default()
        };
        Plan {
            workload,
            seed,
            cold,
            hot,
            hot_cdf,
            hot_titles,
            title_cdf,
            users: dataset.users().len(),
        }
    }

    /// Sessions that fill the caches before timing starts: a first slice of
    /// the catalogue, or every cacheable request of the hot set once; for
    /// `ingest_mixed` then [`INGEST_SETTLE`] sessions with their commits,
    /// drawn from indices the timed run does not use.
    pub fn warmup(&self) -> Vec<Session> {
        if self.workload == Workload::ColdCatalogue {
            return (0..COLD_WARMUP)
                .filter_map(|n| self.cold_entry(n))
                .collect();
        }
        let mut warm: Vec<Session> = self
            .hot
            .iter()
            .map(|q| {
                let mut s = vec![explain_get(q, &HOT_BASE)];
                for task in ["sm", "dm"] {
                    s.push(interact(q, "/map.svg", &format!("task={task}")));
                    s.push(interact(q, "/api/v1/detail", &format!("task={task}&idx=0")));
                }
                s.push(interact(q, "/api/v1/drill", "task=sm&idx=0"));
                s.push(interact(q, "/api/v1/timeline", "window=18"));
                s
            })
            .collect();
        if self.workload == Workload::IngestMixed {
            warm.extend((0..INGEST_SETTLE).filter_map(|i| self.session(SETTLE_FROM + i)));
        }
        warm
    }

    /// Session `i` of the main stream (past the warm-up), or `None` once
    /// a finite stream is exhausted.
    pub fn session(&self, i: u64) -> Option<Session> {
        if self.workload == Workload::ColdCatalogue {
            return self.cold_entry(COLD_WARMUP + i as usize);
        }
        let q = &self.hot[pick(&self.hot_cdf, kronecker(self.seed, 0, GOLDEN_FRAC, i))];
        let tweak = tweak(self.seed, i);
        // Fixed cycles over the visitor's choices keep the work of any run
        // of sessions the same.
        let task = ["sm", "dm"][(i % 2) as usize];
        let profile = profile(self.seed, i);
        // The visitor tweaks the explanation, goes back to it, opens its
        // map and a group, goes back again, then personalizes.
        let mut s = vec![
            explain_get(q, &HOT_BASE),
            explain_get(q, &tweak),
            explain_get(q, &HOT_BASE),
            interact(q, "/map.svg", &format!("task={task}")),
            interact(q, "/api/v1/drill", "task=sm&idx=0"),
            interact(q, "/api/v1/detail", &format!("task={task}&idx=0")),
            explain_get(q, &HOT_BASE),
            interact(q, "/api/v1/personalize", &profile),
        ];
        if (i + self.seed).is_multiple_of(4) {
            s.push(interact(q, "/api/v1/timeline", "window=18"));
        }
        // `ingest_mixed` visitors also write: every `COMMIT_EVERY`-th
        // session ends with a commit, at a fixed place in the stream so
        // that the share of writes, and of the misses they cause, does not
        // depend on how fast the host runs the sessions.
        if self.workload == Workload::IngestMixed && (i + 1).is_multiple_of(COMMIT_EVERY) {
            s.push(self.commit(i / COMMIT_EVERY));
        }
        Some(s)
    }

    /// Commit `i` of `ingest_mixed`: one batch of ratings by existing
    /// reviewers for one hot-set title.
    fn commit(&self, i: u64) -> Req {
        let mut rng = Rng::derive(self.seed, 4, i);
        let title = &self.hot_titles[rng.weighted(&self.title_cdf)];
        let mut body = String::from("{\"ratings\":[");
        for n in 0..COMMIT_BATCH {
            if n > 0 {
                body.push(',');
            }
            write!(
                body,
                "{{\"user\":{},\"item\":{},\"score\":{},\"ts\":\"2003-03-{:02}\"}}",
                rng.below(self.users),
                maprat_server::Json::str(title.clone()).render(),
                1 + rng.below(5),
                1 + rng.below(28)
            )
            .unwrap();
        }
        body.push_str("]}");
        Req {
            class: Class::Commit,
            method: "POST",
            target: "/api/v1/ingest".into(),
            body,
            ratings: COMMIT_BATCH,
        }
    }
}

fn explain_get(q: &Query, s: &Setting) -> Req {
    Req {
        class: Class::Explain,
        method: "GET",
        target: format!(
            "/api/v1/explain?{}&{}",
            q.params.as_ref().expect("hot queries are single-term"),
            s.params()
        ),
        body: String::new(),
        ratings: 0,
    }
}

fn interact(q: &Query, route: &'static str, extra: &str) -> Req {
    Req {
        class: Class::Interact(route),
        method: "GET",
        target: format!(
            "{route}?{}&{}&{extra}",
            q.params.as_ref().expect("hot queries are single-term"),
            HOT_BASE.params()
        ),
        body: String::new(),
        ratings: 0,
    }
}

/// The hot set in popularity order: the planted paper titles interleaved
/// with the people credited on several of them, so that about a third of
/// the sessions explore a filmography. The order is fixed, not seeded, so
/// every seed offers the server the same mix of work.
fn hot_set(dataset: &Dataset) -> Vec<Query> {
    let scenarios = paper_scenarios();
    let titles: Vec<Query> = scenarios
        .iter()
        .filter(|s| dataset.find_title(s.title).is_some())
        .map(|s| Query::single(QueryTerm::TitleIs(s.title.to_string())))
        .collect();
    let mut people: Vec<(&str, bool)> = Vec::new();
    for s in &scenarios {
        for (name, actor) in s
            .actors
            .iter()
            .map(|a| (*a, true))
            .chain([(s.director, false)])
        {
            let credits = scenarios
                .iter()
                .filter(|o| {
                    if actor {
                        o.actors.contains(&name)
                    } else {
                        o.director == name
                    }
                })
                .count();
            if credits >= 2
                && !people.contains(&(name, actor))
                && dataset.find_person(name).is_some()
            {
                people.push((name, actor));
            }
        }
    }
    let mut people = people.into_iter().map(|(name, actor)| {
        Query::single(if actor {
            QueryTerm::Actor(name.into())
        } else {
            QueryTerm::Director(name.into())
        })
    });
    let mut hot = Vec::new();
    for title in titles {
        hot.push(title);
        hot.extend(people.next());
    }
    hot.extend(people);
    hot
}

/// The `cold_catalogue` pools of `(query, min_support)`, each ordered so
/// that every prefix spans the pool's universe sizes evenly.
#[derive(Default)]
struct Catalogue {
    singles: Vec<(Query, usize)>,
    people: Vec<(Query, usize)>,
    ors: Vec<(Query, usize)>,
}

impl Catalogue {
    fn new(dataset: &Dataset, rng: &mut Rng) -> Catalogue {
        let count = |id: ItemId| dataset.ratings_for_item(id).len();
        let mut by_count: Vec<ItemId> = dataset.items().iter().map(|it| it.id).collect();
        by_count.sort_by_key(|&id| (std::cmp::Reverse(count(id)), id));
        // Ratings per reviewer state of each item. A `geo=1` explain needs a
        // state group of at least `min_support` ratings, so an entry is only
        // asked at supports its largest state reaches.
        let states = UsState::ALL.len();
        let mut state_counts = vec![0usize; dataset.items().len() * states];
        for r in dataset.ratings() {
            state_counts[r.item.index() * states + dataset.user(r.user).state as usize] += 1;
        }
        let universe = |items: &mut dyn Iterator<Item = ItemId>| {
            let mut by_state = vec![0; states];
            for id in items {
                let row = &state_counts[id.index() * states..][..states];
                by_state.iter_mut().zip(row).for_each(|(a, b)| *a += b);
            }
            Universe {
                ratings: by_state.iter().sum(),
                top_state: by_state.into_iter().max().unwrap_or(0),
            }
        };
        let mut title_items: HashMap<&str, Vec<ItemId>> = HashMap::new();
        for it in dataset.items() {
            title_items
                .entry(it.title.as_str())
                .or_default()
                .push(it.id);
        }
        let title_universe: HashMap<&str, Universe> = title_items
            .iter()
            .map(|(t, ids)| (*t, universe(&mut ids.iter().copied())))
            .collect();
        let precomputed: HashSet<&str> = by_count[..PRECOMPUTED]
            .iter()
            .map(|&id| dataset.item(id).title.as_str())
            .collect();
        let mut titles: Vec<(&str, Universe)> =
            title_universe.iter().map(|(t, u)| (*t, *u)).collect();
        titles.sort_by_key(|(t, _)| *t);
        titles.retain(|(t, _)| !precomputed.contains(t));
        let singles = tiered(
            titles
                .into_iter()
                .map(|(t, n)| (QueryTerm::TitleIs(t.into()), n)),
            &TITLE_TIERS,
        );
        let mut people: Vec<(QueryTerm, Universe)> = Vec::new();
        for p in dataset.persons() {
            for (role, term) in [
                (Role::Actor, QueryTerm::Actor(p.name.clone())),
                (Role::Director, QueryTerm::Director(p.name.clone())),
            ] {
                // Queries resolve a name to one person; skip the homonyms.
                if dataset.find_person(&p.name) == Some(p.id) {
                    let items = dataset.items_with_person(p.id, role);
                    people.push((term, universe(&mut items.iter().copied())));
                }
            }
        }
        let people = tiered(people.into_iter(), &PERSON_TIERS);
        let any_cdf = cumulative(by_count.iter().map(|&id| count(id) as f64));
        let mut seen = HashSet::new();
        let mut ors = Vec::with_capacity(COLD_ORS);
        while ors.len() < COLD_ORS {
            let mut picked: Vec<&str> = (0..2 + rng.below(2))
                .map(|_| {
                    dataset
                        .item(by_count[rng.weighted(&any_cdf)])
                        .title
                        .as_str()
                })
                .collect();
            picked.sort();
            picked.dedup();
            if picked.len() < 2 || !seen.insert(picked.clone()) {
                continue;
            }
            let mut query = ItemQuery::new(QueryTerm::TitleIs(picked[0].into()));
            for t in &picked[1..] {
                query = query.or(QueryTerm::TitleIs((*t).into()));
            }
            let u = universe(&mut picked.iter().flat_map(|t| title_items[t].iter().copied()));
            if u.top_state < 5 + SUPPORT_STEPS - 1 {
                continue;
            }
            ors.push((
                Query {
                    query,
                    params: None,
                },
                5,
                u.ratings,
            ));
        }
        Catalogue {
            singles: spread_by_size(singles, rng),
            people: spread_by_size(people, rng),
            ors: spread_by_size(ors, rng),
        }
    }
}

/// Size of an entry's universe and of its largest reviewer state.
#[derive(Debug, Clone, Copy)]
struct Universe {
    ratings: usize,
    top_state: usize,
}

/// One catalogue entry per tier the universe reaches, both in ratings and
/// in its largest state at the tier's highest support step: `(query,
/// support, ratings)`.
fn tiered(
    terms: impl Iterator<Item = (QueryTerm, Universe)>,
    tiers: &'static [usize],
) -> Vec<(Query, usize, usize)> {
    terms
        .flat_map(|(term, u)| {
            let q = Query::single(term);
            tiers
                .iter()
                .enumerate()
                .map(|(i, &min)| (min, 5 + i * SUPPORT_STEPS))
                .take_while(move |&(min, support)| {
                    u.ratings >= min && u.top_state >= support + SUPPORT_STEPS - 1
                })
                .map(move |(_, support)| (q.clone(), support, u.ratings))
        })
        .collect()
}

/// Orders a pool so that any run, however far it gets, draws the same
/// spread of universe sizes: sort by size, then visit the sorted positions
/// in bit-reversed order (every prefix of 2^k positions is spread evenly),
/// XORed with a seeded mask so that each seed visits other entries.
fn spread_by_size(mut pool: Vec<(Query, usize, usize)>, rng: &mut Rng) -> Vec<(Query, usize)> {
    shuffle(&mut pool, rng);
    pool.sort_by_key(|e| e.2);
    let bits = pool.len().next_power_of_two().trailing_zeros();
    let mask = if bits == 0 {
        0
    } else {
        rng.next_u64() as usize & ((1 << bits) - 1)
    };
    (0..1usize << bits)
        .map(|j| {
            if bits == 0 {
                0
            } else {
                (j.reverse_bits() >> (usize::BITS - bits)) ^ mask
            }
        })
        .filter(|&i| i < pool.len())
        .map(|i| (pool[i].0.clone(), pool[i].1))
        .collect()
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

impl Plan {
    /// Entry `n` of the catalogue: one distinct explain and, when the
    /// query has a URL form, the map a catalogue page shows for it.
    /// `None` only when the dataset yields an empty pool.
    fn cold_entry(&self, n: usize) -> Option<Session> {
        let slot = COLD_PATTERN[n % 10];
        let per_cycle = COLD_PATTERN.iter().filter(|&&s| s == slot).count();
        let k = n / 10 * per_cycle
            + COLD_PATTERN[..n % 10]
                .iter()
                .filter(|&&s| s == slot)
                .count();
        let (pool, tiers) = match slot {
            0 => (&self.cold.singles, TITLE_TIERS.len()),
            1 => (&self.cold.people, PERSON_TIERS.len()),
            _ => (&self.cold.ors, 1),
        };
        // Each lap over a pool moves every entry to another `min_support`
        // step past the pool's tiers: a distinct cube, so the stream never
        // repeats. Steps rotate from a seeded start per entry, so every lap
        // draws the same mix of steps; laps past `SUPPORT_STEPS` go on to
        // higher steps.
        let at = k % pool.len().max(1);
        let (q, support) = pool.get(at)?.clone();
        let lap = k / pool.len();
        let start = Rng::derive(self.seed, 7, (slot as u64) << 32 | at as u64).below(SUPPORT_STEPS);
        let step = (start + lap) % SUPPORT_STEPS + lap / SUPPORT_STEPS * SUPPORT_STEPS * tiers;
        let support = support + step;
        let mut rng = Rng::derive(self.seed, 6, n as u64);
        let setting = Setting {
            k: 3 + rng.below(2),
            coverage: [0.1, 0.2, 0.3][rng.below(3)],
            geo: true,
            support,
        };
        let request = ExplainRequest::new(q.query.clone(), setting.typed());
        let mut session = vec![Req {
            class: Class::Explain,
            method: "POST",
            target: "/api/v1/explain".into(),
            body: explain_request_to_json(&request).render(),
            ratings: 0,
        }];
        if let Some(params) = &q.params {
            session.push(Req {
                class: Class::Interact("/map.svg"),
                method: "GET",
                target: format!("/map.svg?{params}&{}", setting.params()),
                body: String::new(),
                ratings: 0,
            });
        }
        Some(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_data::synth::{generate, SynthConfig};

    fn dataset() -> Dataset {
        generate(&SynthConfig::small(7)).unwrap()
    }

    fn stream(plan: &Plan, n: u64) -> Vec<Req> {
        let mut reqs: Vec<Req> = plan.warmup().into_iter().flatten().collect();
        reqs.extend((0..n).filter_map(|i| plan.session(i)).flatten());
        reqs
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let d = dataset();
        for w in Workload::ALL {
            let a = stream(&Plan::new(w, &d, 11), 50);
            let b = stream(&Plan::new(w, &d, 11), 50);
            let c = stream(&Plan::new(w, &d, 12), 50);
            assert!(!a.is_empty());
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
        }
    }

    #[test]
    fn ingest_sessions_commit_at_fixed_places() {
        let d = dataset();
        let plan = Plan::new(Workload::IngestMixed, &d, 4);
        for i in 0..40 {
            let session = plan.session(i).unwrap();
            let commits = session.iter().filter(|r| r.class == Class::Commit).count();
            assert_eq!(
                commits,
                usize::from((i + 1) % COMMIT_EVERY == 0),
                "session {i}"
            );
        }
    }

    #[test]
    fn sessions_do_not_depend_on_draw_order() {
        let d = dataset();
        let plan = Plan::new(Workload::HotSession, &d, 3);
        let forward: Vec<_> = (0..20).map(|i| plan.session(i)).collect();
        let backward: Vec<_> = (0..20).rev().map(|i| plan.session(i)).collect();
        assert!(forward.iter().eq(backward.iter().rev()));
    }

    #[test]
    fn cold_entries_never_repeat_a_cube() {
        let d = dataset();
        let plan = Plan::new(Workload::ColdCatalogue, &d, 5);
        // Several laps over the small dataset's pools, past SUPPORT_STEPS.
        let sessions: Vec<Session> = (0..3000).map(|n| plan.cold_entry(n).unwrap()).collect();
        let explains: Vec<&Req> = sessions.iter().map(|s| &s[0]).collect();
        assert!(explains.len() > 100);
        // The snapshot tier keys cubes by query and `min_support`; `k` and
        // `coverage` do not make a cube distinct.
        let cube = |r: &Req| {
            let body = maprat_server::Json::parse(&r.body).unwrap();
            let support = body.get("settings").unwrap().get("min_support").unwrap();
            format!(
                "{} {}",
                body.get("query").unwrap().render(),
                support.render()
            )
        };
        let distinct: HashSet<String> = explains.iter().map(|r| cube(r)).collect();
        assert_eq!(distinct.len(), explains.len());
        assert!(explains.iter().any(|r| r.body.contains("\"or\"")));
        assert!(explains.iter().any(|r| r.body.contains("\"actor\"")));
    }

    #[test]
    fn cold_laps_draw_every_support_step_alike() {
        let d = dataset();
        let plan = Plan::new(Workload::ColdCatalogue, &d, 9);
        let singles = plan.cold.singles.len();
        // Singles are four slots in ten: entry n of the stream is single
        // number n / 10 * 4 + (its rank among the cycle's single slots).
        let singles_at: Vec<usize> = (0..10 * singles * SUPPORT_STEPS / 4)
            .filter(|n| COLD_PATTERN[n % 10] == 0)
            .collect();
        let support = |n: usize| {
            let body = maprat_server::Json::parse(&plan.cold_entry(n).unwrap()[0].body).unwrap();
            body.get("settings")
                .unwrap()
                .get("min_support")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        let mean = |lap: &[usize]| lap.iter().map(|&n| support(n)).sum::<f64>() / lap.len() as f64;
        let laps: Vec<f64> = singles_at.chunks(singles).map(mean).collect();
        assert_eq!(laps.len(), SUPPORT_STEPS);
        // Without the rotation each lap's support would be one step above
        // the last; with it every lap has the same mean, up to the seeded
        // starts' sampling noise.
        for lap in &laps {
            assert!((lap - laps[0]).abs() < 0.25, "{laps:?}");
        }
    }

    #[test]
    fn a_short_run_draws_the_hot_set_in_its_zipf_proportions() {
        let d = dataset();
        let plan = Plan::new(Workload::HotSession, &d, 17);
        let n = 200;
        let mut counts = vec![0usize; plan.hot.len()];
        for i in 0..n {
            let first = &plan.session(i).unwrap()[0].target;
            let q = plan
                .hot
                .iter()
                .position(|q| first.contains(q.params.as_deref().unwrap()))
                .unwrap();
            counts[q] += 1;
        }
        let total = plan.hot_cdf.last().unwrap();
        for (r, &c) in counts.iter().enumerate() {
            let expect = n as f64 / (r + 1) as f64 / total;
            assert!(
                (c as f64 - expect).abs() <= 2.0,
                "rank {r}: {c} vs {expect:.1}"
            );
        }
    }
}
