//! Seeded input generators: everything a workload feeds the program comes
//! from here, so one `--seed` fixes a run's inputs end to end.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and good enough for drawing keys.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
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

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Zipf(s) over ranks `0..n` as a precomputed CDF; rank 0 is the hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

pub const MODELS: [&str; 4] = ["lmo", "hockney", "loggp", "plogp"];
pub const COLLECTIVES: [&str; 3] = ["scatter", "gather", "bcast"];
pub const ALGORITHMS: [&str; 2] = ["linear", "binomial"];

/// One point of a tenant's key space: what a `predict` asks about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Key {
    pub model: usize,
    pub collective: usize,
    pub algorithm: usize,
    pub m: u64,
}

/// A tenant's hot keys: 4 models x 2 algorithms x `sizes` message sizes,
/// the collective cycling with the size. Sizes are drawn from the seed,
/// distinct, and 2 KiB apart so no two keys collide.
pub fn key_space(rng: &mut Rng, sizes: usize) -> Vec<Key> {
    let ms: Vec<u64> = (0..sizes as u64)
        .map(|i| (i + 1) * 2048 + rng.next_u64() % 2048)
        .collect();
    (0..sizes * 8)
        .map(|k| Key {
            model: k % 4,
            algorithm: (k / 4) % 2,
            collective: (k / 8) % 3,
            m: ms[k / 8],
        })
        .collect()
}

/// One generated request, before it is rendered for the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Req {
    /// `predict` of a hot key (cache hit once primed) or, with a
    /// never-seen `m`, a cache miss.
    Predict { tenant: usize, key: Key },
    /// `select` at a hot key's (model, collective, m).
    Select { tenant: usize, key: Key },
    /// `plan` of the workload's fixed trace for a tenant.
    Plan { tenant: usize },
    /// `batch` of predicts, possibly spanning shards.
    Batch(Vec<(usize, Key)>),
}

impl Req {
    /// The tenant whose shard answers (the first one for a batch).
    pub fn tenant(&self) -> usize {
        match self {
            Req::Predict { tenant, .. } | Req::Select { tenant, .. } | Req::Plan { tenant } => {
                *tenant
            }
            Req::Batch(items) => items[0].0,
        }
    }
}

fn write_predict(out: &mut String, fp: &str, key: &Key) {
    let _ = write!(
        out,
        "\"verb\":\"predict\",\"fingerprint\":\"{fp}\",\"model\":\"{}\",\
         \"collective\":\"{}\",\"algorithm\":\"{}\",\"m\":{}",
        MODELS[key.model], COLLECTIVES[key.collective], ALGORITHMS[key.algorithm], key.m
    );
}

/// Renders `req` as one request payload carrying the integer `id`.
/// `fps[tenant]` is the tenant's fingerprint and `plan_tail` the
/// pre-rendered `,"trace":{...}` of the workload's plan trace.
pub fn render(out: &mut String, req: &Req, id: u64, fps: &[String], plan_tail: &str) {
    out.clear();
    let _ = write!(out, "{{\"id\":{id},");
    match req {
        Req::Predict { tenant, key } => write_predict(out, &fps[*tenant], key),
        Req::Select { tenant, key } => {
            let _ = write!(
                out,
                "\"verb\":\"select\",\"fingerprint\":\"{}\",\"model\":\"{}\",\
                 \"collective\":\"{}\",\"m\":{}",
                fps[*tenant], MODELS[key.model], COLLECTIVES[key.collective], key.m
            );
        }
        Req::Plan { tenant } => {
            let _ = write!(
                out,
                "\"verb\":\"plan\",\"model\":\"lmo\",\"fingerprint\":\"{}\"{plan_tail}",
                fps[*tenant]
            );
        }
        Req::Batch(items) => {
            out.push_str("\"verb\":\"batch\",\"requests\":[");
            for (i, (tenant, key)) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"id\":{i},");
                write_predict(out, &fps[*tenant], key);
                out.push('}');
            }
            out.push(']');
        }
    }
    out.push('}');
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Predict,
    Select,
    Plan,
    Miss,
    Batch,
}

/// The traffic mix of one serving workload, in parts per thousand; the
/// remainder is hot `predict`.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub select: u32,
    pub plan: u32,
    pub miss: u32,
    pub batch: u32,
}

/// A seeded, endless request stream over `tenants` tenants.
///
/// Kinds are dealt from shuffled blocks of 1000 that hold exactly the mix's
/// share of each, so the expensive kinds (a `plan` costs thirty `predict`s)
/// are as frequent in one segment as in the next and in one seed's run as
/// in another's; only their order is random.
pub struct Stream {
    rng: Rng,
    /// The rest of the current block of kinds, dealt from the back.
    block: Vec<Kind>,
    mix: Mix,
    /// Draws the tenant (fleet) or the (tenant, key) pair (single server).
    zipf: Zipf,
    /// Maps a Zipf rank to a tenant or pair, so the hot set moves with the seed.
    order: Vec<usize>,
    keys: Vec<Vec<Key>>,
    zipf_over_pairs: bool,
    /// Next never-seen message size; above every hot size.
    next_miss_m: u64,
}

impl Stream {
    /// `zipf_over_pairs`: draw (tenant, key) pairs Zipf-distributed over the
    /// whole key space; otherwise draw the tenant Zipf-distributed and the
    /// key uniformly.
    pub fn new(seed: u64, keys: Vec<Vec<Key>>, mix: Mix, zipf_over_pairs: bool) -> Stream {
        let mut rng = Rng::new(seed ^ 0x5712_ea11);
        let domain = if zipf_over_pairs {
            keys.iter().map(Vec::len).sum()
        } else {
            keys.len()
        };
        let order = rng.permutation(domain);
        Stream {
            rng,
            block: Vec::new(),
            mix,
            zipf: Zipf::new(domain, 1.1),
            order,
            keys,
            zipf_over_pairs,
            next_miss_m: 1 << 20,
        }
    }

    fn draw(&mut self) -> (usize, Key) {
        let slot = self.order[self.zipf.sample(&mut self.rng)];
        if self.zipf_over_pairs {
            let per = self.keys[0].len();
            (slot / per, self.keys[slot / per][slot % per])
        } else {
            let k = self.rng.below(self.keys[slot].len());
            (slot, self.keys[slot][k])
        }
    }

    /// The next `n` requests of the mix.
    pub fn take(&mut self, n: usize) -> Vec<Req> {
        (0..n).map(|_| self.next_req()).collect()
    }

    fn next_kind(&mut self) -> Kind {
        if self.block.is_empty() {
            let Mix {
                select,
                plan,
                miss,
                batch,
            } = self.mix;
            let shares = [
                (Kind::Select, select),
                (Kind::Plan, plan),
                (Kind::Miss, miss),
                (Kind::Batch, batch),
                (Kind::Predict, 1000 - select - plan - miss - batch),
            ];
            let dealt: Vec<Kind> = shares
                .iter()
                .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n as usize))
                .collect();
            self.block = self
                .rng
                .permutation(dealt.len())
                .into_iter()
                .map(|i| dealt[i])
                .collect();
        }
        self.block.pop().expect("a block holds 1000 kinds")
    }

    /// The next request of the mix.
    pub fn next_req(&mut self) -> Req {
        let (tenant, key) = self.draw();
        match self.next_kind() {
            Kind::Predict => Req::Predict { tenant, key },
            Kind::Select => Req::Select { tenant, key },
            Kind::Plan => Req::Plan { tenant },
            Kind::Miss => {
                self.next_miss_m += 1;
                let m = self.next_miss_m;
                Req::Predict {
                    tenant,
                    key: Key { m, ..key },
                }
            }
            Kind::Batch => {
                let mut items = vec![(tenant, key)];
                items.extend((1..8).map(|_| self.draw()));
                Req::Batch(items)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Stream {
        let mut rng = Rng::new(seed);
        let keys = (0..4).map(|_| key_space(&mut rng, 4)).collect();
        let mix = Mix {
            select: 200,
            plan: 50,
            miss: 100,
            batch: 40,
        };
        Stream::new(seed, keys, mix, false)
    }

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let z = Zipf::new(1024, 1.1);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..2000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let hot = draw(7).iter().filter(|&&r| r < 10).count();
        assert!(
            hot > 600,
            "Zipf(1.1) puts over 30% on the top 10 of 1024: {hot}"
        );
    }

    #[test]
    fn key_space_has_distinct_keys() {
        let keys = key_space(&mut Rng::new(3), 32);
        assert_eq!(keys.len(), 256);
        for (i, a) in keys.iter().enumerate() {
            assert!(keys[i + 1..].iter().all(|b| a != b), "duplicate key {a:?}");
        }
        assert!(keys.iter().any(|k| k.collective == 2));
    }

    #[test]
    fn streams_repeat_for_equal_seeds_and_differ_otherwise() {
        let take = |seed| {
            let mut s = stream(seed);
            (0..500).map(|_| s.next_req()).collect::<Vec<_>>()
        };
        assert_eq!(take(2009), take(2009));
        assert_ne!(take(2009), take(2010));
        let kinds = take(2009);
        assert!(kinds
            .iter()
            .any(|r| matches!(r, Req::Batch(b) if b.len() == 8)));
        assert!(kinds.iter().any(|r| matches!(r, Req::Plan { .. })));
        assert!(kinds.iter().any(|r| matches!(r, Req::Select { .. })));
    }

    #[test]
    fn every_block_of_a_thousand_holds_the_exact_mix() {
        let mut s = stream(5);
        for _ in 0..3 {
            let block = s.take(1000);
            let count = |f: fn(&Req) -> bool| block.iter().filter(|r| f(r)).count();
            assert_eq!(count(|r| matches!(r, Req::Select { .. })), 200);
            assert_eq!(count(|r| matches!(r, Req::Plan { .. })), 50);
            assert_eq!(count(|r| matches!(r, Req::Batch(_))), 40);
            assert_eq!(
                count(|r| matches!(r, Req::Predict { key, .. } if key.m >= 1 << 20)),
                100
            );
        }
    }

    #[test]
    fn missed_sizes_never_repeat() {
        let mut s = stream(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..5000 {
            if let Req::Predict { key, .. } = s.next_req() {
                if key.m >= 1 << 20 {
                    assert!(seen.insert(key.m), "miss size {} repeated", key.m);
                }
            }
        }
        assert!(seen.len() > 300);
    }

    #[test]
    fn render_puts_the_id_first() {
        let fps = vec!["abc".to_string()];
        let key = Key {
            model: 0,
            collective: 1,
            algorithm: 1,
            m: 4096,
        };
        let mut out = String::new();
        render(&mut out, &Req::Predict { tenant: 0, key }, 42, &fps, "");
        assert_eq!(
            out,
            "{\"id\":42,\"verb\":\"predict\",\"fingerprint\":\"abc\",\"model\":\"lmo\",\
             \"collective\":\"gather\",\"algorithm\":\"binomial\",\"m\":4096}"
        );
        render(&mut out, &Req::Plan { tenant: 0 }, 7, &fps, ",\"trace\":{}");
        assert!(out.starts_with("{\"id\":7,\"verb\":\"plan\"") && out.ends_with(",\"trace\":{}}"));
    }
}
