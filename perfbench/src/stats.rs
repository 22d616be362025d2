//! Order statistics and the seeded generator every workload derives its
//! inputs from.

/// Nearest-rank quantile `q` in `[0, 1]` of `values` (sorted in place);
/// `None` when empty.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// Median of `values`: the mean of the two middle elements for an even
/// count. `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

/// SplitMix64 step: a bijective 64-bit mixer, so distinct inputs give
/// distinct outputs.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic value for a tuple of coordinates under `seed`.
pub fn hash(seed: u64, coords: &[u64]) -> u64 {
    coords.iter().fold(mix(seed), |h, &c| mix(h ^ c))
}

/// `len` seeded bytes for the given coordinates.
pub fn bytes(seed: u64, coords: &[u64], len: usize) -> Vec<u8> {
    let base = hash(seed, coords);
    let mut out = Vec::with_capacity(len);
    let mut i = 0u64;
    while out.len() < len {
        let word = mix(base ^ i).to_le_bytes();
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&word[..take]);
        i += 1;
    }
    out
}

/// FNV-1a digest, for comparing payloads without keeping them.
pub fn fnv(data: &[u8]) -> u64 {
    data.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut v), Some(3.0));
        assert_eq!(quantile(&mut v, 0.99), Some(5.0));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(median(&mut [1.0, 2.0]), Some(1.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn seeded_bytes_depend_on_every_coordinate() {
        assert_eq!(bytes(1, &[2, 3], 13), bytes(1, &[2, 3], 13));
        assert_ne!(bytes(1, &[2, 3], 13), bytes(2, &[2, 3], 13));
        assert_ne!(bytes(1, &[2, 3], 13), bytes(1, &[3, 2], 13));
        assert_eq!(bytes(1, &[2, 3], 13).len(), 13);
    }
}
