//! The `OTIS(p, q)` wiring law.

use serde::{Deserialize, Serialize};

/// A transmitter, addressed as `(group i, offset j)` with
/// `0 ≤ i < p`, `0 ≤ j < q`, or globally as `t = i·q + j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Transmitter {
    /// Group index `i ∈ Z_p`.
    pub group: u64,
    /// Offset within the group, `j ∈ Z_q`.
    pub offset: u64,
}

/// A receiver, addressed as `(group a, offset b)` with
/// `0 ≤ a < q`, `0 ≤ b < p`, or globally as `r = a·p + b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Receiver {
    /// Group index `a ∈ Z_q`.
    pub group: u64,
    /// Offset within the group, `b ∈ Z_p`.
    pub offset: u64,
}

/// The free-space optical system `OTIS(p, q)`: one-to-one connections
/// from `p` groups of `q` transmitters onto `q` groups of `p`
/// receivers using `p + q` lenses, with the **transpose wiring law**
///
/// ```text
/// transmitter (i, j)  →  receiver (q-1-j, p-1-i)
/// ```
///
/// (Section 4.1, Figure 6.) Globally the law is
/// `t ↦ m - 1 - transpose(t)` where `transpose(i·q + j) = j·p + i` and
/// `m = pq` — reversal composed with a matrix transpose, which is
/// where the architecture's name comes from.
///
/// ```
/// use otis_optics::{Otis, Transmitter};
///
/// let otis = Otis::new(3, 6); // Figure 6
/// let r = otis.connect(Transmitter { group: 0, offset: 0 });
/// assert_eq!((r.group, r.offset), (5, 2));
/// assert_eq!(otis.lens_count(), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Otis {
    p: u64,
    q: u64,
}

impl Otis {
    /// `OTIS(p, q)` with `p, q ≥ 1` and `pq` within `u64`; panics
    /// otherwise (see [`Otis::try_new`]).
    pub fn new(p: u64, q: u64) -> Self {
        Otis::try_new(p, q).unwrap_or_else(|e| panic!("{e}"))
    }

    /// `OTIS(p, q)`, or why it cannot exist: `p` or `q` is zero, or
    /// the `pq` transceiver pairs overflow `u64`.
    pub fn try_new(p: u64, q: u64) -> Result<Self, String> {
        if p == 0 || q == 0 {
            return Err(format!("OTIS needs p, q >= 1 (got {p}, {q})"));
        }
        if p.checked_mul(q).is_none() {
            return Err(format!(
                "OTIS({p}, {q}) has more than 2^64 transceiver pairs"
            ));
        }
        Ok(Otis { p, q })
    }

    /// Number of transmitter groups (= lenses in the first array).
    pub fn p(&self) -> u64 {
        self.p
    }

    /// Transmitters per group (= lenses in the second array).
    pub fn q(&self) -> u64 {
        self.q
    }

    /// Total transceiver pairs `m = p·q`.
    pub fn link_count(&self) -> u64 {
        self.p * self.q
    }

    /// Total lenses `p + q` — the hardware cost the paper minimizes.
    pub fn lens_count(&self) -> u64 {
        self.p + self.q
    }

    /// The wiring law: the receiver reached by transmitter `(i, j)`.
    pub fn connect(&self, t: Transmitter) -> Receiver {
        assert!(
            t.group < self.p && t.offset < self.q,
            "transmitter out of range"
        );
        Receiver {
            group: self.q - 1 - t.offset,
            offset: self.p - 1 - t.group,
        }
    }

    /// Inverse wiring: the transmitter feeding receiver `(a, b)`.
    pub fn source_of(&self, r: Receiver) -> Transmitter {
        assert!(
            r.group < self.q && r.offset < self.p,
            "receiver out of range"
        );
        Transmitter {
            group: self.p - 1 - r.offset,
            offset: self.q - 1 - r.group,
        }
    }

    /// Global index of a transmitter: `t = i·q + j`.
    pub fn transmitter_index(&self, t: Transmitter) -> u64 {
        t.group * self.q + t.offset
    }

    /// Transmitter with the given global index.
    pub fn transmitter(&self, index: u64) -> Transmitter {
        assert!(index < self.link_count(), "transmitter index out of range");
        Transmitter {
            group: index / self.q,
            offset: index % self.q,
        }
    }

    /// Global index of a receiver: `r = a·p + b`.
    pub fn receiver_index(&self, r: Receiver) -> u64 {
        r.group * self.p + r.offset
    }

    /// Receiver with the given global index.
    pub fn receiver(&self, index: u64) -> Receiver {
        assert!(index < self.link_count(), "receiver index out of range");
        Receiver {
            group: index / self.p,
            offset: index % self.p,
        }
    }

    /// The wiring law on global indices:
    /// `t ↦ pq - 1 - (t%q)·p - (t/q)`.
    pub fn connect_index(&self, t: u64) -> u64 {
        self.receiver_index(self.connect(self.transmitter(t)))
    }

    /// The reversed system: `OTIS(q, p)`. Section 4.2: if `G` has an
    /// `OTIS(p,q)` layout, `G⁻` has an `OTIS(q,p)` layout — this is
    /// the hardware-side half of that statement.
    pub fn reversed(&self) -> Otis {
        Otis {
            p: self.q,
            q: self.p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_6_spot_checks() {
        // OTIS(3,6): transmitter (0,0) → receiver (5,2);
        // transmitter (2,5) → receiver (0,0).
        let otis = Otis::new(3, 6);
        assert_eq!(
            otis.connect(Transmitter {
                group: 0,
                offset: 0
            }),
            Receiver {
                group: 5,
                offset: 2
            }
        );
        assert_eq!(
            otis.connect(Transmitter {
                group: 2,
                offset: 5
            }),
            Receiver {
                group: 0,
                offset: 0
            }
        );
        assert_eq!(otis.lens_count(), 9);
        assert_eq!(otis.link_count(), 18);
    }

    #[test]
    fn wiring_is_a_bijection() {
        let otis = Otis::new(4, 6);
        let mut hit = [false; 24];
        for t in 0..24 {
            let r = otis.connect_index(t);
            assert!(
                !std::mem::replace(&mut hit[r as usize], true),
                "receiver {r} hit twice"
            );
        }
        assert!(hit.iter().all(|&h| h));
    }

    #[test]
    fn source_of_inverts_connect() {
        let otis = Otis::new(5, 3);
        for index in 0..otis.link_count() {
            let t = otis.transmitter(index);
            assert_eq!(otis.source_of(otis.connect(t)), t);
        }
    }

    #[test]
    fn global_law_is_reversed_transpose() {
        let otis = Otis::new(4, 8);
        let m = otis.link_count();
        for t in 0..m {
            let (i, j) = (t / 8, t % 8);
            let transpose = j * 4 + i;
            assert_eq!(otis.connect_index(t), m - 1 - transpose);
        }
    }

    #[test]
    fn reversed_swaps_roles() {
        let otis = Otis::new(3, 6);
        let rev = otis.reversed();
        assert_eq!((rev.p(), rev.q()), (6, 3));
        assert_eq!(rev.lens_count(), otis.lens_count());
        // Reversal undoes the wiring: going "forward" in the reversed
        // system from the receiver's coordinates lands on the original
        // transmitter's coordinates.
        for t in 0..otis.link_count() {
            let r = otis.connect(otis.transmitter(t));
            let back = rev.connect(Transmitter {
                group: r.group,
                offset: r.offset,
            });
            let original = otis.transmitter(t);
            assert_eq!((back.group, back.offset), (original.group, original.offset));
        }
    }

    #[test]
    fn index_round_trips() {
        let otis = Otis::new(7, 2);
        for index in 0..otis.link_count() {
            assert_eq!(otis.transmitter_index(otis.transmitter(index)), index);
            assert_eq!(otis.receiver_index(otis.receiver(index)), index);
        }
    }

    #[test]
    fn degenerate_single_group() {
        let otis = Otis::new(1, 5);
        // transmitter (0, j) → receiver (4-j, 0)
        for j in 0..5 {
            let r = otis.connect(Transmitter {
                group: 0,
                offset: j,
            });
            assert_eq!((r.group, r.offset), (4 - j, 0));
        }
    }
}
