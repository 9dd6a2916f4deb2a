//! Host-speed probe. On a shared VM the same campaign runs 1.5× slower
//! or more for minutes at a time, in CPU time as much as in wall time, so
//! raw timings of runs made minutes apart differ by more than any useful
//! bound. A fixed kernel timed next to the campaigns slows with them: the
//! untraced run scales its timings to the host speed at which the kernel
//! takes [`REFERENCE_PROBE_S`]. The kernel is part of this crate, so a
//! change to the program never moves it.

use crate::workload::THREADS;
use std::hint::black_box;
use std::time::Instant;

/// Probe time at the reference host speed, about what it takes on the
/// 2-core x86-64 VM the benchmark was written on.
pub const REFERENCE_PROBE_S: f64 = 0.1;

/// Bytes of the probe's byte-code program.
const CODE_LEN: usize = 1 << 20;

/// Entries of the probe's state table (256 KiB of `u32`).
const TABLE_LEN: usize = 1 << 16;

/// Passes over the program per probe.
const ROUNDS: usize = 8;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The probe's program: a fixed pseudo-random byte string.
fn program() -> Vec<u8> {
    let mut x = 12345u64;
    (0..CODE_LEN)
        .map(|_| {
            x = xorshift(x);
            x as u8
        })
        .collect()
}

/// Interprets `code` for `rounds` passes against `table`: table lookups
/// and data-dependent branches, the kind of work a simulator's replay
/// loop does. Returns the accumulator, which pins the work done.
fn interpret(code: &[u8], table: &mut [u32], rounds: usize) -> u32 {
    let mask = table.len() - 1;
    let mut acc = 1u32;
    for _ in 0..rounds {
        for &op in code {
            let idx = (acc as usize ^ (op as usize).wrapping_mul(2_654_435_761)) & mask;
            match op & 7 {
                0 => acc = acc.wrapping_add(table[idx]),
                1 => acc ^= table[idx].rotate_left(5),
                2 => table[idx] = table[idx].wrapping_add(acc),
                3 => acc = acc.wrapping_mul(0x9E37_79B9) ^ table[idx],
                4 if acc & 1 == 0 => acc >>= 1,
                4 => acc = acc.wrapping_mul(3).wrapping_add(1),
                5 => acc = acc.wrapping_sub(table[(idx + 7) & mask]),
                6 => table[idx] ^= acc,
                _ => acc = acc.rotate_right(3),
            }
        }
    }
    acc
}

/// Times one run of the probe kernel on each of the campaign's
/// [`THREADS`] evaluation threads at once, in seconds until all finish:
/// a campaign keeps every core busy, so the probe samples every core.
pub fn probe_s() -> f64 {
    let code = program();
    let mut tables = vec![vec![0u32; TABLE_LEN]; THREADS];
    let t = Instant::now();
    std::thread::scope(|s| {
        for table in &mut tables {
            let code = &code;
            s.spawn(move || black_box(interpret(black_box(code), table, ROUNDS)));
        }
    });
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_fixed_work() {
        // Changing the kernel rescales every timing the benchmark reports,
        // so its result is pinned: a change must be a deliberate one.
        let mut table = vec![0u32; TABLE_LEN];
        assert_eq!(interpret(&program(), &mut table, 1), 3_412_961_300);
    }
}
