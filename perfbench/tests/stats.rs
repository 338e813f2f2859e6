//! The order statistics the benchmark reports.

use epa_perfbench::stats::{median, quartiles, tail_percentile};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    // statistics.quantiles([7, 1, 4, 9, 2], n=4) == [1.5, 4.0, 8.0]
    assert_eq!(quartiles(&[7.0, 1.0, 4.0, 9.0, 2.0]), Some([1.5, 4.0, 8.0]));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn p90_needs_ten_samples_beyond_it() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail_percentile(&hundred, 0.9, 10), Ok(90.0));
    let ninety_nine = &hundred[..99];
    assert!(tail_percentile(ninety_nine, 0.9, 10).is_err());
    assert!(tail_percentile(&[], 0.9, 10).is_err());
    // With a looser tail requirement the same short sample is accepted.
    assert_eq!(tail_percentile(ninety_nine, 0.9, 9), Ok(90.0));
}
