//! A fixed reference task that measures the host's speed at the moment.
//!
//! On a shared host the speed of every op drifts by tens of percent over
//! minutes as other tenants come and go, and no run length averages that
//! away. The timed loop runs this task between ops; an op's latency over
//! the task's latency next to it is a ratio in which the host's speed
//! cancels. Like the simulator's table-driven soft float and memory, the
//! task mixes integer multiplies with loads and stores spread over a table
//! larger than the first-level cache. It has no data-dependent branch, so
//! the branch predictor cannot learn its way to a different speed, and it
//! shares no code with the program being measured, so a change to the
//! program cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Table entries (512 KiB) and steps per run.
const TABLE: usize = 1 << 16;
const STEPS: usize = 50_000;

pub struct Calib {
    table: Vec<u64>,
}

impl Calib {
    pub fn new() -> Calib {
        let mut rng = crate::Rng::new(0xCA11B);
        Calib {
            table: (0..TABLE).map(|_| rng.next_u64()).collect(),
        }
    }

    /// One run of the task; its host time in ms.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let table = &mut self.table;
        let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
        for _ in 0..STEPS {
            x = x
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x1405_7b7e_f767_814f);
            let v = table[(x >> 40) as usize % TABLE];
            acc = acc.rotate_left(5) ^ v.wrapping_mul(x | 1);
            table[acc as usize % TABLE] ^= x;
        }
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    }
}
