//! Workload shaping: how clients choose objects.
//!
//! Real replicated stores rarely see uniform access; hot objects dominate.
//! [`ObjectDistribution::Zipfian`] models that with a power-law sampler
//! (precomputed CDF, inverse-transform sampling).
//!
//! A Zipfian CDF over `n` objects is `n` `powf` calls and `8 · n` bytes
//! (0.7–1.5 ms and 512 KiB at 2^16 keys), and a benchmark builds many
//! simulations of one shape in a row. Each thread therefore keeps the last
//! table it built, keyed by `(objects, exponent)`, and samplers of that
//! shape share it. The table stays in memory until the thread builds one
//! of another shape or exits. Uniform samplers hold no table and bypass the
//! memo. The memo is per thread, so parallel sweeps share nothing.

use rand::Rng;
use std::cell::RefCell;
use std::sync::Arc;

/// How a client picks the object of its next operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ObjectDistribution {
    /// Every object equally likely.
    #[default]
    Uniform,
    /// Zipf-distributed popularity: object `i` (0-based) has weight
    /// `1/(i+1)^exponent`. `exponent = 0` degenerates to uniform; typical
    /// web-like skew is `0.9 … 1.2`.
    Zipfian {
        /// The skew exponent `s ≥ 0`.
        exponent: f64,
    },
}

/// Precomputed object sampler.
#[derive(Debug, Clone)]
pub struct ObjectSampler {
    /// Cumulative distribution over object ids; `None` means uniform.
    cdf: Option<Arc<[f64]>>,
    objects: u32,
}

/// A Zipfian CDF's shape: object count and exponent bits.
type ZipfShape = (usize, u64);

thread_local! {
    /// The last Zipfian CDF this thread built, with its shape.
    static ZIPF_CDF: RefCell<Option<(ZipfShape, Arc<[f64]>)>> = const { RefCell::new(None) };
}

/// The Zipfian CDF over `objects` ids with `exponent`, from this thread's
/// memo when the last table it built has that shape.
fn zipf_cdf(objects: usize, exponent: f64) -> Arc<[f64]> {
    let shape = (objects, exponent.to_bits());
    ZIPF_CDF.with_borrow_mut(|memo| {
        if let Some((built, cdf)) = memo {
            if *built == shape {
                return Arc::clone(cdf);
            }
        }
        // Filled in place (`make_mut` on the only handle does not clone):
        // copying a finished `Vec` in would touch another `8 · objects`
        // bytes of fresh pages on every cold build.
        let mut cdf: Arc<[f64]> = std::iter::repeat_n(0.0, objects).collect();
        let slots = Arc::make_mut(&mut cdf);
        let mut acc = 0.0;
        for (i, v) in slots.iter_mut().enumerate() {
            acc += 1.0 / ((i + 1) as f64).powf(exponent);
            *v = acc;
        }
        let total = acc;
        for v in slots {
            *v /= total;
        }
        *memo = Some((shape, Arc::clone(&cdf)));
        cdf
    })
}

impl ObjectSampler {
    /// Builds a sampler for `objects` objects under `dist`.
    ///
    /// # Panics
    ///
    /// Panics if `objects == 0` or a Zipf exponent is negative/NaN.
    pub fn new(objects: usize, dist: ObjectDistribution) -> Self {
        assert!(objects > 0, "need at least one object");
        let cdf = match dist {
            ObjectDistribution::Uniform => None,
            ObjectDistribution::Zipfian { exponent } => {
                assert!(
                    exponent >= 0.0 && exponent.is_finite(),
                    "zipf exponent must be a nonnegative finite number"
                );
                Some(zipf_cdf(objects, exponent))
            }
        };
        ObjectSampler {
            cdf,
            objects: objects as u32,
        }
    }

    /// Samples an object id.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let Some(cdf) = &self.cdf else {
            return rng.gen_range(0..self.objects);
        };
        let x: f64 = rng.gen();
        match cdf.binary_search_by(|v| v.total_cmp(&x)) {
            Ok(i) | Err(i) => (i as u32).min(self.objects - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_sampler_covers_all_objects() {
        let s = ObjectSampler::new(4, ObjectDistribution::Uniform);
        let mut rng = StdRng::seed_from_u64(1);
        let mut hist = [0u32; 4];
        for _ in 0..4000 {
            hist[s.sample(&mut rng) as usize] += 1;
        }
        for h in hist {
            assert!((800..1200).contains(&h), "{hist:?}");
        }
    }

    #[test]
    fn zipfian_sampler_skews_towards_low_ids() {
        let s = ObjectSampler::new(8, ObjectDistribution::Zipfian { exponent: 1.0 });
        let mut rng = StdRng::seed_from_u64(2);
        let mut hist = [0u32; 8];
        for _ in 0..20_000 {
            hist[s.sample(&mut rng) as usize] += 1;
        }
        // Monotone-ish decay and strong head.
        assert!(hist[0] > hist[3] && hist[3] > hist[7], "{hist:?}");
        assert!(hist[0] as f64 / hist[7] as f64 > 4.0, "{hist:?}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let s = ObjectSampler::new(5, ObjectDistribution::Zipfian { exponent: 0.0 });
        let mut rng = StdRng::seed_from_u64(3);
        let mut hist = [0u32; 5];
        for _ in 0..10_000 {
            hist[s.sample(&mut rng) as usize] += 1;
        }
        for h in hist {
            assert!((1700..2300).contains(&h), "{hist:?}");
        }
    }

    #[test]
    fn zipfian_sampler_is_seed_deterministic() {
        // The sampler sits on the deterministic replay surface: the same
        // seed must yield the same draw sequence, and the recorded pins
        // below must fail if the CDF construction or the inverse-transform
        // search ever silently changes.
        let s = ObjectSampler::new(1024, ObjectDistribution::Zipfian { exponent: 1.0 });
        let draw = |seed: u64| -> Vec<u32> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..12).map(|_| s.sample(&mut rng)).collect()
        };
        assert_eq!(draw(0x5EED), draw(0x5EED), "same seed, same sequence");
        assert_ne!(draw(0x5EED), draw(0x5EEE), "different seeds diverge");
        // Values recorded at introduction.
        assert_eq!(draw(0x5EED)[..4], [625, 423, 322, 846]);
    }

    /// The memoized table behind a Zipfian sampler.
    fn table(s: &ObjectSampler) -> &Arc<[f64]> {
        s.cdf.as_ref().expect("a Zipfian sampler holds a table")
    }

    #[test]
    fn builds_of_one_shape_share_the_thread_table() {
        let zipf = |exponent| ObjectDistribution::Zipfian { exponent };
        let a = ObjectSampler::new(1000, zipf(1.1));
        let b = ObjectSampler::new(1000, zipf(1.1));
        assert!(Arc::ptr_eq(table(&a), table(&b)), "a repeat build reuses");
        assert_eq!(Arc::strong_count(table(&a)), 3, "a, b and the memo");
        let c = ObjectSampler::new(1000, zipf(1.0));
        assert!(!Arc::ptr_eq(table(&a), table(&c)));
        assert_eq!(Arc::strong_count(table(&a)), 2, "the memo let go of it");
        let d = ObjectSampler::new(999, zipf(1.0));
        assert!(
            !Arc::ptr_eq(table(&c), table(&d)),
            "the count is in the key"
        );
        let e = ObjectSampler::new(1000, zipf(1.1));
        assert!(!Arc::ptr_eq(table(&a), table(&e)), "replaced, so rebuilt");
        assert!(ObjectSampler::new(1000, ObjectDistribution::Uniform)
            .cdf
            .is_none());
        let f = ObjectSampler::new(1000, zipf(1.1));
        assert!(Arc::ptr_eq(table(&e), table(&f)), "uniform left the memo");
    }

    #[test]
    fn cold_and_warm_samplers_draw_alike() {
        // The memo must be invisible on the replay surface: a table built
        // on a fresh thread and one handed out by a warm memo give the
        // same draws, for the benchmark's shape and `stress.rs`'s.
        let draws = |s: &ObjectSampler| -> Vec<u32> {
            let mut rng = StdRng::seed_from_u64(0xC01D);
            (0..10_000).map(|_| s.sample(&mut rng)).collect()
        };
        for (objects, exponent) in [(65_536, 1.0), (1_000, 1.1)] {
            let dist = ObjectDistribution::Zipfian { exponent };
            let first = ObjectSampler::new(objects, dist);
            let warm = ObjectSampler::new(objects, dist);
            assert!(Arc::ptr_eq(table(&first), table(&warm)));
            let cold = std::thread::scope(|scope| {
                scope
                    .spawn(|| draws(&ObjectSampler::new(objects, dist)))
                    .join()
                    .expect("the cold build does not panic")
            });
            assert_eq!(cold, draws(&warm), "{objects} objects, s = {exponent}");
        }
    }

    #[test]
    fn zipfian_frequencies_match_closed_form() {
        // Inverse-transform sampling must reproduce the closed-form pmf
        // p_i = (1/(i+1)^s) / H_{n,s}. 200k samples over 64 objects keep
        // the relative error of the head terms well under 10%; the tail
        // gets an absolute floor because its expected counts are tiny.
        let n = 64usize;
        let exponent = 1.0f64;
        let samples = 200_000u32;
        let s = ObjectSampler::new(n, ObjectDistribution::Zipfian { exponent });
        let mut rng = StdRng::seed_from_u64(0x21FF);
        let mut hist = vec![0u32; n];
        for _ in 0..samples {
            hist[s.sample(&mut rng) as usize] += 1;
        }
        let harmonic: f64 = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(exponent)).sum();
        for (i, &h) in hist.iter().enumerate() {
            let expected = (1.0 / ((i + 1) as f64).powf(exponent)) / harmonic;
            let observed = f64::from(h) / f64::from(samples);
            assert!(
                (observed - expected).abs() <= 0.10 * expected + 0.002,
                "object {i}: observed {observed:.5}, closed form {expected:.5}"
            );
        }
    }

    #[test]
    fn sample_never_out_of_range() {
        let s = ObjectSampler::new(3, ObjectDistribution::Zipfian { exponent: 2.0 });
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            assert!(s.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn zero_objects_rejected() {
        let _ = ObjectSampler::new(0, ObjectDistribution::Uniform);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn negative_exponent_rejected() {
        let _ = ObjectSampler::new(2, ObjectDistribution::Zipfian { exponent: -1.0 });
    }
}
