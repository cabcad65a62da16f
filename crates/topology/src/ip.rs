//! Synthetic IPv4 address plan and prefix→AS resolution.
//!
//! The paper's §5.2 analysis annotates every traceroute hop with the AS it
//! belongs to. Real M-Lab does this with RouteViews prefix data; we allocate
//! each AS a disjoint prefix from carrier-grade space and resolve hops with
//! a longest-prefix (here: containing-range) lookup.

use crate::asn::Asn;
use std::collections::BTreeMap;

/// An IPv4 address as a plain `u32` (network byte order semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub u32);

impl std::fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d] = self.0.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl Ipv4Addr {
    /// Builds an address from dotted-quad components.
    pub fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        Self(u32::from_be_bytes([a, b, c, d]))
    }
}

/// A CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prefix {
    pub base: Ipv4Addr,
    pub len: u8,
}

impl Prefix {
    /// Creates a prefix, normalizing the base to its network address.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(base: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Self { base: Ipv4Addr(base.0 & Self::mask(len)), len }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Whether `ip` falls inside this prefix.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        (ip.0 & Self::mask(self.len)) == self.base.0
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// The `i`-th address within the prefix.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn nth(&self, i: u64) -> Ipv4Addr {
        assert!(i < self.size(), "host index {i} outside /{}", self.len);
        Ipv4Addr(self.base.0 + i as u32)
    }
}

impl std::fmt::Display for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.base, self.len)
    }
}

/// Maps prefixes to origin ASes (disjoint prefixes; the builder guarantees
/// disjointness, and [`PrefixTable::insert`] enforces it).
#[derive(Debug, Clone, Default)]
pub struct PrefixTable {
    /// Keyed by prefix base address; disjointness makes a flat map enough.
    by_base: BTreeMap<u32, (Prefix, Asn)>,
}

impl PrefixTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a prefix as originated by `asn`.
    ///
    /// # Panics
    /// Panics if the prefix overlaps an existing entry.
    pub fn insert(&mut self, prefix: Prefix, asn: Asn) {
        if let Some((_, (existing, _))) = self.by_base.range(..=prefix.base.0).next_back() {
            assert!(
                !existing.contains(prefix.base) && !prefix.contains(existing.base),
                "prefix {prefix} overlaps {existing}"
            );
        }
        if let Some((_, (next, _))) = self.by_base.range(prefix.base.0 + 1..).next() {
            assert!(!prefix.contains(next.base), "prefix {prefix} overlaps {next}");
        }
        self.by_base.insert(prefix.base.0, (prefix, asn));
    }

    /// Resolves an address to its origin AS.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<Asn> {
        self.by_base
            .range(..=ip.0)
            .next_back()
            .filter(|(_, (p, _))| p.contains(ip))
            .map(|(_, (_, asn))| *asn)
    }

    /// Number of registered prefixes.
    pub fn len(&self) -> usize {
        self.by_base.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.by_base.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dotted_quad() {
        assert_eq!(Ipv4Addr::from_octets(10, 20, 0, 7).to_string(), "10.20.0.7");
    }

    #[test]
    fn prefix_contains_and_nth() {
        let p = Prefix::new(Ipv4Addr::from_octets(10, 5, 0, 0), 16);
        assert!(p.contains(Ipv4Addr::from_octets(10, 5, 200, 1)));
        assert!(!p.contains(Ipv4Addr::from_octets(10, 6, 0, 0)));
        assert_eq!(p.size(), 65_536);
        assert_eq!(p.nth(0).to_string(), "10.5.0.0");
        assert_eq!(p.nth(257).to_string(), "10.5.1.1");
    }

    #[test]
    fn prefix_normalizes_base() {
        let p = Prefix::new(Ipv4Addr::from_octets(10, 5, 77, 3), 16);
        assert_eq!(p.base.to_string(), "10.5.0.0");
    }

    #[test]
    #[should_panic(expected = "host index")]
    fn nth_out_of_range_panics() {
        Prefix::new(Ipv4Addr::from_octets(10, 0, 0, 0), 24).nth(256);
    }

    #[test]
    fn table_lookup() {
        let mut t = PrefixTable::new();
        t.insert(Prefix::new(Ipv4Addr::from_octets(10, 1, 0, 0), 16), Asn(100));
        t.insert(Prefix::new(Ipv4Addr::from_octets(10, 2, 0, 0), 16), Asn(200));
        assert_eq!(t.lookup(Ipv4Addr::from_octets(10, 1, 9, 9)), Some(Asn(100)));
        assert_eq!(t.lookup(Ipv4Addr::from_octets(10, 2, 0, 1)), Some(Asn(200)));
        assert_eq!(t.lookup(Ipv4Addr::from_octets(10, 3, 0, 1)), None);
        assert_eq!(t.lookup(Ipv4Addr::from_octets(9, 255, 255, 255)), None);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_prefix_panics() {
        let mut t = PrefixTable::new();
        t.insert(Prefix::new(Ipv4Addr::from_octets(10, 1, 0, 0), 16), Asn(100));
        t.insert(Prefix::new(Ipv4Addr::from_octets(10, 1, 128, 0), 24), Asn(200));
    }
}
