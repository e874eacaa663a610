//! Modulo reservation tables for functional units and interconnect links.

use cvliw_ddg::OpClass;
use cvliw_machine::{Interconnect, MachineConfig};

use crate::assign::ClusterSet;

/// Modulo reservation table tracking functional-unit and interconnect-link
/// occupancy of a kernel with a given initiation interval.
///
/// Functional units are fully pipelined: an operation occupies one issue
/// slot of its class in its cluster at `cycle mod II`. Links are **not**
/// pipelined (§3 of the paper: `bus_coms = floor(II/bus_lat)·nof_buses`): a
/// copy occupies its link(s) for the transfer's occupancy in consecutive
/// modulo slots. On the paper's shared buses every copy takes any one bus
/// row; on point-to-point fabrics a copy books the dedicated `src → dst`
/// link of every destination it reaches, each with its own per-pair
/// occupancy.
#[derive(Clone, Debug)]
pub struct Mrt {
    ii: u32,
    clusters: u8,
    interconnect: Interconnect,
    /// `fu[(cluster·3 + class)·slots + slot]` = issued ops; flat so a
    /// [`Mrt::reset`] between scheduling attempts touches one allocation.
    fu: Vec<u8>,
    /// `fu_capacity[cluster][class]` — per cluster, so heterogeneous
    /// machines (§2.1 extension) are handled natively.
    fu_capacity: Vec<[u8; 3]>,
    /// Per-link transfer occupancy in cycles (uniform on shared buses,
    /// per-pair on point-to-point fabrics).
    link_occ: Vec<u32>,
    /// `links[link·slots + slot]` = busy flag.
    links: Vec<bool>,
}

impl Mrt {
    /// An unsized table holding no reservations; must be [`Mrt::reset`]
    /// before use. Crate-internal: the scheduler scratch needs a value to
    /// hold between attempts, but a zero-II table would panic on every
    /// query, so it is never exposed.
    pub(crate) fn unset() -> Self {
        Mrt {
            ii: 0,
            clusters: 0,
            interconnect: Interconnect::SharedBus {
                buses: 0,
                latency: 0,
                pipelined: false,
            },
            fu: Vec::new(),
            fu_capacity: Vec::new(),
            link_occ: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Creates an empty table for `machine` at initiation interval `ii`.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    #[must_use]
    pub fn new(machine: &MachineConfig, ii: u32) -> Self {
        let mut mrt = Mrt::unset();
        mrt.reset(machine, ii);
        mrt
    }

    /// Clears the table and resizes it for `machine` at `ii`, reusing the
    /// existing buffers. A table that is reset before each scheduling
    /// attempt behaves exactly like a freshly constructed one.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn reset(&mut self, machine: &MachineConfig, ii: u32) {
        assert!(ii > 0, "initiation interval must be positive");
        let slots = ii as usize;
        self.ii = ii;
        self.clusters = machine.clusters();
        self.interconnect = machine.interconnect();
        self.fu.clear();
        self.fu.resize(machine.clusters() as usize * 3 * slots, 0);
        self.fu_capacity.clear();
        self.fu_capacity.extend(machine.cluster_ids().map(|c| {
            [
                machine.fu_count_in(c, OpClass::Int),
                machine.fu_count_in(c, OpClass::Fp),
                machine.fu_count_in(c, OpClass::Mem),
            ]
        }));
        let n_links = machine.links() as usize;
        self.link_occ.clear();
        if self.interconnect.is_shared_bus() {
            self.link_occ.resize(n_links, machine.bus_occupancy());
        } else {
            self.link_occ.extend((0..n_links as u32).map(|l| {
                let (s, d) = self.interconnect.link_pair(self.clusters, l);
                machine.link_occupancy(s, d)
            }));
        }
        self.links.clear();
        self.links.resize(n_links * slots, false);
    }

    /// Flat index of `(cluster, class, slot)` in the unit table.
    fn fu_index(&self, cluster: u8, class: OpClass, slot: usize) -> usize {
        (cluster as usize * 3 + class.index()) * self.ii as usize + slot
    }

    /// The initiation interval of this table.
    #[must_use]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    fn slot(&self, cycle: i64) -> usize {
        cycle.rem_euclid(i64::from(self.ii)) as usize
    }

    /// Whether a `class` operation can issue in `cluster` at (absolute)
    /// `cycle`.
    #[must_use]
    pub fn fu_free(&self, cluster: u8, class: OpClass, cycle: i64) -> bool {
        let slot = self.slot(cycle);
        self.fu[self.fu_index(cluster, class, slot)]
            < self.fu_capacity[cluster as usize][class.index()]
    }

    /// Reserves a `class` issue slot in `cluster` at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is full ([`Mrt::fu_free`] must be checked first).
    pub fn place_fu(&mut self, cluster: u8, class: OpClass, cycle: i64) {
        assert!(
            self.fu_free(cluster, class, cycle),
            "functional unit oversubscribed"
        );
        let idx = self.fu_index(cluster, class, self.slot(cycle));
        self.fu[idx] += 1;
    }

    /// Whether one link is free for `occ` consecutive modulo slots from
    /// `cycle`.
    fn link_free(&self, link: usize, occ: u32, cycle: i64) -> bool {
        let slots = self.ii as usize;
        let row = &self.links[link * slots..(link + 1) * slots];
        (0..occ).all(|k| !row[self.slot(cycle + i64::from(k))])
    }

    /// Books one link for `occ` consecutive modulo slots from `cycle`.
    fn book_link(&mut self, link: usize, occ: u32, cycle: i64) {
        let slots = self.ii as usize;
        for k in 0..occ {
            let slot = link * slots + self.slot(cycle + i64::from(k));
            assert!(!self.links[slot], "link oversubscribed");
            self.links[slot] = true;
        }
    }

    /// Finds the fabric resource able to carry a copy issued at `cycle`
    /// from `source` to every cluster in `dests`, if any: the index of a
    /// free shared bus, or `0` on a point-to-point fabric when the
    /// dedicated `source → dest` link of **every** destination is free for
    /// its per-pair occupancy. Shared buses broadcast, so `source`/`dests`
    /// are ignored there.
    #[must_use]
    pub fn copy_available(&self, source: u8, dests: ClusterSet, cycle: i64) -> Option<u8> {
        if self.interconnect.is_shared_bus() {
            let occ = self.link_occ.first().copied().unwrap_or(0);
            if occ > self.ii {
                return None; // a transfer cannot even fit inside the kernel
            }
            (0..self.link_occ.len())
                .find(|&b| self.link_free(b, occ, cycle))
                .map(|b| b as u8)
        } else {
            if self.links.is_empty() {
                return None;
            }
            debug_assert!(!dests.is_empty(), "a copy must reach some cluster");
            for d in dests.iter() {
                let link = self.interconnect.link_of(self.clusters, source, d) as usize;
                let occ = self.link_occ[link];
                if occ > self.ii || !self.link_free(link, occ, cycle) {
                    return None;
                }
            }
            Some(0)
        }
    }

    /// Reserves the fabric for a copy issued at `cycle`: shared bus `bus`
    /// (as returned by [`Mrt::copy_available`]), or the per-destination
    /// links of a point-to-point fabric.
    ///
    /// # Panics
    ///
    /// Panics if any occupied slot is already busy.
    pub fn place_copy(&mut self, source: u8, dests: ClusterSet, bus: u8, cycle: i64) {
        if self.interconnect.is_shared_bus() {
            let occ = self.link_occ.first().copied().unwrap_or(0);
            self.book_link(bus as usize, occ, cycle);
        } else {
            for d in dests.iter() {
                let link = self.interconnect.link_of(self.clusters, source, d) as usize;
                self.book_link(link, self.link_occ[link], cycle);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_machine::MachineConfig;

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    /// Shorthand: a copy from cluster 0 to cluster 1.
    fn to1() -> ClusterSet {
        ClusterSet::single(1)
    }

    #[test]
    fn fu_capacity_is_respected() {
        // 4c: one unit of each class per cluster.
        let m = machine("4c1b2l64r");
        let mut mrt = Mrt::new(&m, 2);
        assert!(mrt.fu_free(0, OpClass::Fp, 0));
        mrt.place_fu(0, OpClass::Fp, 0);
        assert!(!mrt.fu_free(0, OpClass::Fp, 0));
        // other slot, other cluster, other class all still free
        assert!(mrt.fu_free(0, OpClass::Fp, 1));
        assert!(mrt.fu_free(1, OpClass::Fp, 0));
        assert!(mrt.fu_free(0, OpClass::Int, 0));
    }

    #[test]
    fn modulo_wrapping() {
        let m = machine("4c1b2l64r");
        let mut mrt = Mrt::new(&m, 3);
        mrt.place_fu(0, OpClass::Int, 7); // slot 1
        assert!(!mrt.fu_free(0, OpClass::Int, 1));
        assert!(!mrt.fu_free(0, OpClass::Int, -2)); // -2 mod 3 == 1
        assert!(mrt.fu_free(0, OpClass::Int, 2));
    }

    #[test]
    fn two_units_allow_two_ops() {
        let m = machine("2c1b2l64r");
        let mut mrt = Mrt::new(&m, 1);
        mrt.place_fu(0, OpClass::Mem, 0);
        assert!(mrt.fu_free(0, OpClass::Mem, 0));
        mrt.place_fu(0, OpClass::Mem, 0);
        assert!(!mrt.fu_free(0, OpClass::Mem, 0));
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn overplacing_panics() {
        let m = machine("4c1b2l64r");
        let mut mrt = Mrt::new(&m, 1);
        mrt.place_fu(0, OpClass::Fp, 0);
        mrt.place_fu(0, OpClass::Fp, 0);
    }

    #[test]
    fn bus_occupies_latency_slots() {
        // 1 bus, 2-cycle latency, II=4 → capacity 2 transfers.
        let m = machine("2c1b2l64r");
        let mut mrt = Mrt::new(&m, 4);
        let b = mrt.copy_available(0, to1(), 0).unwrap();
        mrt.place_copy(0, to1(), b, 0); // occupies slots 0,1
        assert!(mrt.copy_available(0, to1(), 0).is_none());
        assert!(mrt.copy_available(0, to1(), 1).is_none()); // would need slots 1,2
        let b2 = mrt.copy_available(0, to1(), 2).unwrap(); // slots 2,3 free
        mrt.place_copy(0, to1(), b2, 2);
        assert!(mrt.copy_available(0, to1(), 2).is_none());
        for t in 0..4 {
            assert!(mrt.copy_available(0, to1(), t).is_none());
        }
    }

    #[test]
    fn multiple_buses() {
        let m = machine("4c2b4l64r");
        let mut mrt = Mrt::new(&m, 4);
        let b0 = mrt.copy_available(0, to1(), 0).unwrap();
        mrt.place_copy(0, to1(), b0, 0);
        let b1 = mrt.copy_available(0, to1(), 0).unwrap();
        assert_ne!(b0, b1);
        mrt.place_copy(0, to1(), b1, 0);
        assert!(mrt.copy_available(0, to1(), 0).is_none());
    }

    #[test]
    fn bus_latency_longer_than_ii_is_impossible() {
        let m = machine("4c2b4l64r"); // 4-cycle bus
        let mrt = Mrt::new(&m, 3);
        assert!(mrt.copy_available(0, to1(), 0).is_none());
    }

    #[test]
    fn bus_wraps_modulo_ii() {
        let m = machine("2c1b2l64r"); // 2-cycle bus
        let mut mrt = Mrt::new(&m, 3);
        let b = mrt.copy_available(0, to1(), 2).unwrap();
        mrt.place_copy(0, to1(), b, 2); // occupies slots 2 and 0
        assert!(mrt.copy_available(0, to1(), 0).is_none()); // needs 0,1 but 0 busy
        assert!(mrt.copy_available(0, to1(), 1).is_none()); // needs 1,2 but 2 busy
    }

    #[test]
    fn pipelined_buses_accept_back_to_back_copies() {
        // Same machine as `bus_occupies_latency_slots`, but pipelined: one
        // transfer per cycle, so II=4 carries four copies on one bus.
        let m = machine("2c1b2l64r").with_pipelined_buses();
        let mut mrt = Mrt::new(&m, 4);
        for t in 0..4 {
            let b = mrt
                .copy_available(0, to1(), t)
                .expect("slot free at cycle {t}");
            mrt.place_copy(0, to1(), b, t);
        }
        assert!(mrt.copy_available(0, to1(), 0).is_none(), "kernel now full");
    }

    #[test]
    fn unified_machine_has_no_links() {
        let m = MachineConfig::unified(256);
        let mrt = Mrt::new(&m, 10);
        assert!(mrt.copy_available(0, to1(), 0).is_none());
    }

    #[test]
    fn ptp_links_are_pair_dedicated() {
        // 4-cluster crossbar, 1-cycle links at II=1: every ordered pair
        // has its own link, so transfers to different destinations never
        // contend while same-pair transfers do.
        let m = machine("4c-xbar1l64r");
        let mut mrt = Mrt::new(&m, 1);
        mrt.place_copy(0, ClusterSet::single(1), 0, 0);
        assert!(mrt.copy_available(0, ClusterSet::single(1), 0).is_none());
        assert!(mrt.copy_available(0, ClusterSet::single(2), 0).is_some());
        assert!(mrt.copy_available(1, ClusterSet::single(0), 0).is_some());
    }

    #[test]
    fn ptp_broadcast_books_every_destination_link() {
        let m = machine("4c-xbar1l64r");
        let mut mrt = Mrt::new(&m, 1);
        let dests = {
            let mut s = ClusterSet::single(1);
            s.insert(2);
            s
        };
        mrt.place_copy(0, dests, 0, 0);
        assert!(mrt.copy_available(0, ClusterSet::single(1), 0).is_none());
        assert!(mrt.copy_available(0, ClusterSet::single(2), 0).is_none());
        assert!(mrt.copy_available(0, ClusterSet::single(3), 0).is_some());
    }

    #[test]
    fn ring_occupancy_scales_with_distance() {
        // 4-cluster ring, 1-cycle hops: 0→2 is two hops, occupying its
        // link for 2 cycles; at II=2 only one such transfer fits.
        let m = machine("4c-ring1l64r");
        let mut mrt = Mrt::new(&m, 2);
        let far = ClusterSet::single(2);
        assert!(mrt.copy_available(0, far, 0).is_some());
        mrt.place_copy(0, far, 0, 0);
        assert!(mrt.copy_available(0, far, 0).is_none());
        assert!(mrt.copy_available(0, far, 1).is_none());
        // Neighbouring transfers (1-cycle occupancy) still fit twice.
        let near = ClusterSet::single(1);
        mrt.place_copy(0, near, 0, 0);
        mrt.place_copy(0, near, 0, 1);
        assert!(mrt.copy_available(0, near, 0).is_none());
    }

    #[test]
    fn ring_transfer_longer_than_ii_is_impossible() {
        // 4-cluster ring with 2-cycle hops: 0→2 occupies 4 cycles.
        let m = machine("4c-ring2l64r");
        let mrt = Mrt::new(&m, 3);
        assert!(mrt.copy_available(0, ClusterSet::single(2), 0).is_none());
        assert!(mrt.copy_available(0, ClusterSet::single(1), 0).is_some());
    }
}
