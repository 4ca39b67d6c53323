//! Distributions of the probability DP and the order they are listed in.
//!
//! A [`Table`] accumulates `(state, probability)` terms into distinct
//! states and lists them in the order of an open-addressing table of the
//! requested capacity: states hash to slots with a multiply-xor mix, probe
//! the way the standard library's `HashMap` does (groups of 16; linear,
//! wrapping first-fit below 16 slots), and grow the same way. The DP once
//! kept its distributions in such a `HashMap`; listing states in its
//! iteration order keeps every float sum in the same order, so answers are
//! bit-identical to it.

/// Joint event state: bit `2j` = `A(x_j)`, bit `2j+1` = `B(x_j)` over
/// global query-node indices `j`.
pub(crate) type State = u128;

/// A distribution over states, in a fixed order.
pub(crate) type Dist = Vec<(State, f64)>;

/// Marks an empty [`Table`] slot.
const EMPTY: u32 = u32::MAX;

/// Accumulates terms into distinct states (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct Table {
    /// Entry index per slot, or `EMPTY`.
    slots: Vec<u32>,
    entries: Dist,
    growth_left: usize,
}

fn state_hash(s: State) -> u64 {
    let mut h = 0u64;
    for half in [s as u64, (s >> 64) as u64] {
        h = (h ^ half).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
    }
    h
}

/// Slots of a table sized for `cap` entries.
fn buckets(cap: usize) -> usize {
    match cap {
        0..4 => 4,
        4..8 => 8,
        _ => (cap * 8 / 7).next_power_of_two(),
    }
}

/// Entries a table of `slots` slots holds before it grows.
fn capacity(slots: usize) -> usize {
    if slots < 16 {
        slots - 1
    } else {
        slots / 8 * 7
    }
}

/// The first slot of `slots` on `s`'s probe sequence that is empty or
/// holds `s`.
fn probe(slots: &[u32], entries: &Dist, s: State) -> usize {
    let n = slots.len();
    let mask = n - 1;
    let hit = |i: usize| {
        let e = slots[i];
        e == EMPTY || entries[e as usize].0 == s
    };
    let mut pos = state_hash(s) as usize & mask;
    if n < 16 {
        return (pos..n)
            .chain(0..pos)
            .find(|&i| hit(i))
            .expect("a free slot");
    }
    let mut stride = 0;
    loop {
        if let Some(i) = (0..16).map(|i| (pos + i) & mask).find(|&i| hit(i)) {
            return i;
        }
        stride += 16;
        pos = (pos + stride) & mask;
    }
}

impl Table {
    /// Empties the table and sizes it for `cap` entries (0: no slots
    /// until the first insert).
    pub(crate) fn reset(&mut self, cap: usize) {
        self.entries.clear();
        self.slots.clear();
        if cap == 0 {
            self.slots.push(EMPTY);
            self.growth_left = 0;
        } else {
            let n = buckets(cap);
            self.slots.resize(n, EMPTY);
            self.growth_left = capacity(n);
        }
    }

    /// Adds `p` to state `s`'s probability (a new state starts at 0).
    pub(crate) fn add(&mut self, s: State, p: f64) {
        let mut i = probe(&self.slots, &self.entries, s);
        if self.slots[i] != EMPTY {
            self.entries[self.slots[i] as usize].1 += p;
            return;
        }
        if self.growth_left == 0 {
            self.grow();
            i = probe(&self.slots, &self.entries, s);
        }
        self.slots[i] = self.entries.len() as u32;
        self.entries.push((s, 0.0 + p));
        self.growth_left -= 1;
    }

    /// Moves every entry, in slot order, into a table sized for one more.
    /// The new slots are laid out behind the old ones, then moved down.
    fn grow(&mut self) {
        let (old, items) = (self.slots.len(), self.entries.len());
        let full = if old == 1 { 0 } else { capacity(old) };
        let n = buckets((items + 1).max(full + 1));
        self.slots.resize(old + n, EMPTY);
        let (from, to) = self.slots.split_at_mut(old);
        for &e in from.iter().filter(|&&e| e != EMPTY) {
            let i = probe(to, &self.entries, self.entries[e as usize].0);
            to[i] = e;
        }
        self.slots.drain(..old);
        self.growth_left = capacity(n) - items;
    }

    /// Appends the entries to `out` in slot order.
    pub(crate) fn append_to(&self, out: &mut Dist) {
        out.extend(
            self.slots
                .iter()
                .filter(|&&e| e != EMPTY)
                .map(|&e| self.entries[e as usize]),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table lists states in the iteration order of the standard
    /// library's `HashMap` under the same hash, for every capacity and
    /// through growth — the order the DP's float sums were fixed in. The
    /// golden hashes are the gate on answers; this test shows where the
    /// order comes from. It runs on x86_64 only, where the standard
    /// library's table probes in groups of 16 as [`Table`] does; other
    /// targets use other group widths (the table, and so the answers,
    /// stay the same everywhere).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn table_order_is_the_hash_map_order() {
        use std::collections::HashMap;
        use std::hash::{BuildHasherDefault, Hasher};
        #[derive(Default)]
        struct Mix(u64);
        impl Hasher for Mix {
            fn write(&mut self, _: &[u8]) {
                unreachable!("states hash as u128")
            }
            fn write_u128(&mut self, v: u128) {
                self.0 = state_hash(v);
            }
            fn finish(&self) -> u64 {
                self.0
            }
        }
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut table = Table::default();
        let mut listed = Dist::new();
        for _ in 0..3000 {
            let n = (rnd() % 200) as usize;
            let cap = match rnd() % 3 {
                0 => 0,
                1 => n,
                _ => (rnd() % 40) as usize,
            };
            let mut map: HashMap<State, f64, BuildHasherDefault<Mix>> =
                HashMap::with_capacity_and_hasher(cap, Default::default());
            table.reset(cap);
            for _ in 0..n {
                let s = (0..rnd() % 4).fold(0, |s, _| s | 1u128 << (rnd() % 90));
                let p = (rnd() % 1000) as f64 / 997.0;
                *map.entry(s).or_insert(0.0) += p;
                table.add(s, p);
            }
            listed.clear();
            table.append_to(&mut listed);
            let want: Vec<(State, u64)> = map.iter().map(|(&s, &p)| (s, p.to_bits())).collect();
            let got: Vec<(State, u64)> = listed.iter().map(|&(s, p)| (s, p.to_bits())).collect();
            assert_eq!(got, want, "n = {n}, capacity {cap}");
        }
    }
}
