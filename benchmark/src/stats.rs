//! The few statistics the reports are made of.

use crate::spec::Better;

pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank quantile of unsorted samples, and how many samples lie beyond it.
pub fn quantile(samples: &mut [u64], q: f64) -> (u64, usize) {
    if samples.is_empty() {
        return (0, 0);
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    (samples[rank - 1], samples.len() - rank)
}

/// The value a quarter of the way in from the better end of `values`
/// (linearly interpolated): the 75th percentile when higher is better, the
/// 25th when lower is. 0 when empty.
pub fn better_quartile(mut values: Vec<f64>, better: Better) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let position = (values.len() - 1) as f64
        * match better {
            Better::Higher => 0.75,
            Better::Lower => 0.25,
        };
    let (below, share) = (position.floor() as usize, position.fract());
    match values.get(below + 1) {
        Some(above) => values[below] * (1.0 - share) + above * share,
        None => values[below],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn better_quartile_leans_to_the_better_end() {
        let seconds: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(better_quartile(seconds.clone(), Better::Higher), 7.0);
        assert_eq!(better_quartile(seconds, Better::Lower), 3.0);
        assert_eq!(better_quartile(vec![10.0, 20.0], Better::Higher), 17.5);
        assert_eq!(better_quartile(vec![4.0], Better::Lower), 4.0);
        assert_eq!(better_quartile(vec![], Better::Lower), 0.0);
        // Three disturbed seconds out of ten do not move it.
        let calm = vec![100.0; 10];
        let mut disturbed = calm.clone();
        disturbed[2..5].fill(60.0);
        assert_eq!(
            better_quartile(disturbed, Better::Higher),
            better_quartile(calm, Better::Higher)
        );
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        let mut samples: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(quantile(&mut samples, 0.5), (500, 500));
        assert_eq!(quantile(&mut samples, 0.99), (990, 10));
        assert_eq!(quantile(&mut [], 0.99), (0, 0));
    }
}
