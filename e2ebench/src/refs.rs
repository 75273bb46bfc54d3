//! Job programs' inputs and the benchmark's own references.
//!
//! Every expected output is computed here, in closed form or with a
//! plain serial loop, never by running a Force program.

/// The SplitMix64 finalizer: the unit of synthetic work.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `rounds` chained mixes of `x`.
pub fn busy(x: u64, rounds: u64) -> u64 {
    let mut x = x;
    for _ in 0..rounds {
        x = mix(x);
    }
    std::hint::black_box(x)
}

/// Served language job: a self-scheduled sum under a named critical
/// section, `TOTAL = Σ_{K=1..16} K·c`.  Each `c` is a distinct source.
pub fn served_source(c: i64) -> String {
    format!(
        "\
      Force FMAIN of NP ident ME
      Shared INTEGER TOTAL
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, 16
      Critical LCK
      TOTAL = TOTAL + K * {c}
      End critical
100   End selfsched DO
      Join
"
    )
}

pub fn served_expected(c: i64) -> i64 {
    c * (16 * 17 / 2)
}

/// Virtual cycles charged per round of synthetic work, so the
/// virtual-time passes price the work the programs do.
pub const CYCLES_PER_ROUND: u64 = 4;

/// Rounds of work in one pid's share of a served native job with input
/// `x`: 48 to 79, 64 on average.
pub fn small_rounds(x: u64) -> u64 {
    48 + x % 32
}

/// Served native job: each pid contributes `busy(x ^ pid, small_rounds(x))`.
pub fn small_expected(x: u64, nproc: usize) -> u64 {
    (0..nproc as u64).fold(0u64, |acc, pid| {
        acc.wrapping_add(busy(x ^ pid, small_rounds(x)))
    })
}

/// The paper's skewed triangular loop in the Force language (the shape
/// of the selfscheduled skewed loop the VM experiments use): trip K
/// does K inner steps.
pub fn skew_source(n: i64, c: i64) -> String {
    format!(
        "\
      Force FMAIN of NP ident ME
      Shared INTEGER CHK
      Private INTEGER K, J, T
      End declarations
      Selfsched DO 100 K = 1, {n}
      T = 0
      DO 10 J = 1, K
      T = T + {c} * J * J - K
10    CONTINUE
      Critical L
      CHK = CHK + MOD(T, 1000)
      End critical
100   End selfsched DO
      Join
"
    )
}

/// Closed form of [`skew_source`]: trip K leaves
/// `T = c·K(K+1)(2K+1)/6 − K²`, which is non-negative for `c ≥ 1`.
pub fn skew_expected(n: i64, c: i64) -> i64 {
    (1..=n)
        .map(|k| (c * k * (k + 1) * (2 * k + 1) / 6 - k * k) % 1000)
        .sum()
}

/// Native skewed trip `i` of `n`: `w` rounds of work where `w = i`
/// (ascending) or `n + 1 − i` (descending), times `scale`.
pub fn skew_trip(i: i64, n: i64, salt: u64, descending: bool, scale: u64) -> u64 {
    busy(salt ^ (i as u64), skew_rounds(i, n, descending, scale))
}

pub fn skew_rounds(i: i64, n: i64, descending: bool, scale: u64) -> u64 {
    let w = if descending { n + 1 - i } else { i };
    w as u64 * scale
}

/// Serial reference of the native skewed DOALL: every trip exactly once.
pub fn skew_native_expected(n: i64, salt: u64, descending: bool, scale: u64) -> u64 {
    (1..=n).fold(0u64, |acc, i| {
        acc.wrapping_add(skew_trip(i, n, salt, descending, scale))
    })
}

/// Value pid `pid` adds in its `k`-th critical section (or produces in
/// its `k`-th ring step, with a different `salt`).
pub fn sync_value(base: u64, salt: u64, pid: usize, k: usize) -> u64 {
    mix(base ^ salt ^ ((pid as u64) << 32) ^ k as u64) & 0xffff
}

pub const CRIT_SALT: u64 = 0xc1;
pub const RING_SALT: u64 = 0x7e;

/// Expected sum of `rounds` values from each of `nproc` pids.
pub fn sync_expected(base: u64, salt: u64, nproc: usize, rounds: usize) -> u64 {
    let mut sum = 0;
    for pid in 0..nproc {
        for k in 0..rounds {
            sum += sync_value(base, salt, pid, k);
        }
    }
    sum
}

/// Leaves of the Askfor binary tree of `depth`, and items it handles.
pub fn askfor_expected(depth: u32) -> (u64, u64) {
    (1 << depth, (1 << (depth + 1)) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_reference_matches_hand_sums() {
        assert_eq!(served_expected(1), 136);
        assert_eq!(served_expected(7), 952);
        assert!(served_source(7).contains("K * 7"));
    }

    #[test]
    fn skew_closed_form_matches_the_literal_loop() {
        for (n, c) in [(1, 1), (5, 3), (40, 9), (96, 2)] {
            let mut chk = 0i64;
            for k in 1..=n {
                let mut t = 0i64;
                for j in 1..=k {
                    t = t + c * j * j - k;
                }
                chk += t % 1000;
            }
            assert_eq!(skew_expected(n, c), chk, "n={n} c={c}");
        }
        // Fixed value, pinned so a change to the formula shows.
        assert_eq!(skew_expected(4, 1), 20);
    }

    #[test]
    fn skew_reference_is_order_independent_and_seed_sensitive() {
        let asc = skew_native_expected(12, 5, false, 2);
        // Reversing the trip costs changes the work per trip, not the
        // fact that each trip index is summed once.
        let by_hand: u64 = (1..=12).fold(0u64, |a, i| {
            a.wrapping_add(busy(5 ^ i as u64, i as u64 * 2))
        });
        assert_eq!(asc, by_hand);
        assert_ne!(asc, skew_native_expected(12, 6, false, 2));
        assert_ne!(asc, skew_native_expected(12, 5, true, 2));
    }

    #[test]
    fn sync_references_on_fixed_inputs() {
        assert_eq!(askfor_expected(0), (1, 1));
        assert_eq!(askfor_expected(5), (32, 63));
        let s = sync_expected(11, CRIT_SALT, 2, 3);
        let by_hand: u64 = [0, 1]
            .iter()
            .flat_map(|&p| (0..3).map(move |k| sync_value(11, CRIT_SALT, p, k)))
            .sum();
        assert_eq!(s, by_hand);
        assert!(sync_value(11, CRIT_SALT, 1, 2) <= 0xffff);
        assert_eq!(small_expected(3, 1), busy(3, 51));
    }
}
