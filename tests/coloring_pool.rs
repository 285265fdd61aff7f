//! The checkpoint colour pool (paper §4.3.2) against a model, through the
//! public [`Coloring`] API, over long random sequences of checkpoints,
//! region boundaries, verifications and squashes at every pool size.
//!
//! Two invariants recovery depends on:
//!
//! * while a register has no verified checkpoint, recovery reads its slot
//!   0, so colour 0 is never handed to an unverified checkpoint of it (nor
//!   is a register's verified colour, ever);
//! * verify and squash move colours between the maps and lose none: every
//!   colour of a register is available, verified, or held by exactly one
//!   unverified region.

use turnpike::sim::Coloring;

const REGS: u8 = 6;

/// Deterministic SplitMix64 stream.
fn rng(mut state: u64) -> impl FnMut(u64) -> u64 {
    move |n| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// What the pool must hold: the verified colour per register, and the
/// `(region, register, colour)` each unverified region took.
struct Model {
    verified: Vec<Option<u8>>,
    held: Vec<(u64, u8, u8)>,
}

/// Take every colour `reg` can still get, in fresh regions from `base` on,
/// then squash those regions: the pool is left as it was.
fn drain_available(c: &mut Coloring, reg: u8, base: u64) -> u8 {
    let mut got = 0u8;
    let mut seq = base;
    while let Some(colour) = c.try_assign(reg, seq) {
        assert_eq!(got & (1 << colour), 0, "colour {colour} handed out twice");
        got |= 1 << colour;
        seq += 1;
    }
    c.on_squash(base);
    got
}

#[test]
fn colour_pool_reserves_slot_zero_and_conserves_colours() {
    for colours in 1..=8u8 {
        let all = (((1u16 << colours) - 1) & 0xff) as u8;
        for seed in 0..8 {
            let mut next = rng(seed * 16 + colours as u64);
            let mut c = Coloring::new(REGS as usize, colours);
            let mut m = Model {
                verified: vec![None; REGS as usize],
                held: Vec::new(),
            };
            // Loader-initialized inputs start verified in colour 0.
            for reg in 0..REGS {
                if next(3) == 0 {
                    c.preverify(reg);
                    m.verified[reg as usize] = Some(0);
                }
            }
            // Unverified regions, oldest first; the last one is running.
            let mut live = vec![0u64];
            let mut next_seq = 1u64;
            for step in 0..3000 {
                let running = *live.last().unwrap();
                match next(8) {
                    0..=3 => {
                        let reg = next(REGS as u64) as u8;
                        let Some(colour) = c.try_assign(reg, running) else {
                            continue;
                        };
                        let v = m.verified[reg as usize];
                        assert_ne!(
                            colour,
                            v.unwrap_or(0),
                            "{colours} colours, seed {seed}, step {step}: register {reg} \
                             got the colour recovery reads ({v:?} verified)"
                        );
                        if !m.held.contains(&(running, reg, colour)) {
                            m.held.push((running, reg, colour));
                        }
                    }
                    4 | 5 => {
                        live.push(next_seq);
                        next_seq += 1;
                    }
                    6 if live.len() > 1 => {
                        let seq = live.remove(0);
                        c.on_region_verified(seq);
                        for &(s, reg, colour) in &m.held {
                            if s == seq {
                                m.verified[reg as usize] = Some(colour);
                            }
                        }
                        m.held.retain(|&(s, _, _)| s != seq);
                    }
                    7 => {
                        // Recovery squashes the oldest unverified region
                        // and everything after it; the oldest restarts
                        // under a fresh sequence number.
                        let from = live[next(live.len() as u64) as usize];
                        c.on_squash(from);
                        m.held.retain(|&(s, _, _)| s < from);
                        live.retain(|&s| s < from);
                        live.push(next_seq);
                        next_seq += 1;
                    }
                    _ => {}
                }
                for reg in 0..REGS {
                    let v = m.verified[reg as usize];
                    assert_eq!(c.verified_color(reg), v.unwrap_or(0));
                }
                if step % 50 == 0 {
                    for reg in 0..REGS {
                        let v = m.verified[reg as usize];
                        let verified = v.map_or(0, |v| 1 << v);
                        let mut held = 0u8;
                        for &(_, r, colour) in &m.held {
                            if r == reg {
                                assert_eq!(held & (1 << colour), 0, "colour held twice");
                                held |= 1 << colour;
                            }
                        }
                        let available = drain_available(&mut c, reg, next_seq + 1_000_000);
                        // With nothing verified, colour 0 is free but kept
                        // back for recovery.
                        let reserved = if v.is_none() { 1 } else { 0 };
                        let what =
                            format!("{colours} colours, seed {seed}, step {step}, reg {reg}");
                        assert_eq!(available & (held | verified | reserved), 0, "{what}");
                        assert_eq!(held & verified, 0, "{what}");
                        assert_eq!(available | held | verified | reserved, all, "{what}");
                    }
                }
            }
        }
    }
}
