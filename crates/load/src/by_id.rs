//! Request-id tables for the harvest scans: records `(request id, value)`
//! gathered in stream order, sorted by id, with no node per request.

/// Sorts `(request id, value)` records by id, stably: one id's records
/// keep their stream order. An LSD radix sort on `id - min` in digits of 8
/// to 16 bits, no wider than the record count needs: ids spanning fewer
/// than 64 Ki values, and no more values than there are records, sort in
/// one linear pass; ids need not be dense.
pub(crate) fn sort_by_id<T: Copy>(records: &mut Vec<(u64, T)>) {
    let (lo, hi) = records
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), r| (lo.min(r.0), hi.max(r.0)));
    if lo >= hi {
        return;
    }
    let bits = u64::BITS - (hi - lo).leading_zeros();
    // Enough buckets for the ids, but not many more than records.
    let width = bits.min((u64::BITS - (records.len() as u64).leading_zeros()).clamp(8, 16));
    let mut from = std::mem::take(records);
    let mut to = from.clone();
    let mask = (1 << width) - 1;
    let mut next = vec![0usize; 1 << width];
    for shift in (0..bits).step_by(width as usize) {
        let digit = |r: &(u64, T)| ((r.0 - lo) >> shift & mask) as usize;
        next.fill(0);
        for r in &from {
            next[digit(r)] += 1;
        }
        let mut start = 0;
        for n in &mut next {
            (*n, start) = (start, start + *n);
        }
        for r in &from {
            let d = digit(r);
            to[next[d]] = *r;
            next[d] += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    *records = from;
}

/// `records` sorted by id, keeping only the last record of each id in
/// stream order: what inserting them one by one into a map keyed by id
/// leaves.
pub(crate) fn last_per_id<T: Copy>(mut records: Vec<(u64, T)>) -> Vec<(u64, T)> {
    sort_by_id(&mut records);
    records.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            *kept = *later;
        }
        same
    });
    records
}

/// The value for `id` in records that [`last_per_id`] returned.
pub(crate) fn lookup<T>(records: &[(u64, T)], id: u64) -> Option<&T> {
    records
        .binary_search_by_key(&id, |r| r.0)
        .ok()
        .map(|i| &records[i].1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The radix sort matches the standard library's stable sort on
    /// dense, sparse and single-id inputs, and `last_per_id` keeps what a
    /// map keyed by id keeps.
    #[test]
    fn radix_sort_is_a_stable_sort_by_id() {
        let mut rng = kus_sim::SimRng::from_seed(7);
        for spread in [0, 1, 300, 70_000, u64::MAX] {
            let mut records: Vec<(u64, usize)> = (0..500)
                .map(|pos| (rng.below(spread.max(1)) ^ (spread & 1 << 63), pos))
                .collect();
            let mut expected = records.clone();
            expected.sort_by_key(|r| r.0);
            let map: std::collections::BTreeMap<u64, usize> = records.iter().copied().collect();
            let last = last_per_id(records.clone());
            sort_by_id(&mut records);
            assert_eq!(records, expected, "spread {spread}");
            assert_eq!(last, map.into_iter().collect::<Vec<_>>(), "spread {spread}");
            assert_eq!(lookup(&last, last[0].0), Some(&last[0].1));
        }
        let mut empty: Vec<(u64, ())> = Vec::new();
        sort_by_id(&mut empty);
        assert!(last_per_id(empty).is_empty());
    }
}
