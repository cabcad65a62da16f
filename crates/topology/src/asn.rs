//! Autonomous-system catalogue.
//!
//! Three AS populations matter to the paper:
//!
//! * the **top-10 Ukrainian ASes** of Table 3, analysed individually;
//! * the **border ASes** of Figure 5 — foreign networks with direct
//!   adjacencies into Ukraine (Hurricane Electric AS6939, Cogent AS174, …),
//!   including AS6663 and AS199995 from the Figure 6 case study;
//! * a long tail of smaller Ukrainian eyeball networks, which is what makes
//!   the paper's observation that "the top 10 ASes … are only responsible
//!   for routing 25.6% of the … NDT tests" possible.
//!
//! The first two groups are transcribed from the paper; the tail is
//! synthesized deterministically by the topology builder.

use ndt_geo::Oblast;

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl std::fmt::Display for Asn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Role of an AS in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsKind {
    /// Ukrainian access/eyeball network; NDT clients live here.
    UkrEyeball,
    /// Ukrainian transit network (Ukrtelecom, Triolan, AS199995, …).
    UkrTransit,
    /// Foreign transit with direct Ukrainian adjacencies — a Figure 5
    /// "border AS".
    Border,
    /// Foreign transit without direct Ukrainian adjacency.
    ForeignTransit,
    /// AS hosting an M-Lab site.
    MLabHost,
}

/// Catalogue entry for one AS.
#[derive(Debug, Clone, PartialEq)]
pub struct AsInfo {
    pub asn: Asn,
    pub name: String,
    /// ISO country code ("UA" for Ukrainian networks).
    pub country: &'static str,
    pub kind: AsKind,
    /// For eyeball networks: regions this AS serves with relative weights
    /// (used to spawn clients). Empty for transit networks.
    pub footprint: Vec<(Oblast, f64)>,
}

/// Well-known ASNs transcribed from the paper.
pub mod well_known {
    use super::Asn;

    // Table 3: the top-10 Ukrainian ASes by traceroute occurrence.
    pub const KYIVSTAR: Asn = Asn(15895);
    pub const UARNET: Asn = Asn(3255);
    pub const KYIV_TELECOM: Asn = Asn(25229);
    pub const DATALINE: Asn = Asn(35297);
    pub const EMPLOT: Asn = Asn(21488);
    pub const VODAFONE_UKR: Asn = Asn(21497);
    pub const TENET: Asn = Asn(6876);
    pub const UKR_TELECOM: Asn = Asn(50581);
    pub const LANET: Asn = Asn(39608);
    pub const SKIF: Asn = Asn(13307);

    // §2/§4: Ukrainian networks with reported outages on 2022-03-10.
    pub const UKRTELECOM_TRANSIT: Asn = Asn(6849);
    pub const TRIOLAN: Asn = Asn(13188);

    // Other Ukrainian transit.
    pub const DATAGROUP: Asn = Asn(3326);
    /// The Figure 6 case study: the Ukrainian AS receiving ingress from
    /// three foreign border ASes.
    pub const AS199995: Asn = Asn(199995);

    // Figure 5 border ASes (foreign side).
    pub const HURRICANE_ELECTRIC: Asn = Asn(6939);
    pub const COGENT: Asn = Asn(174);
    pub const RETN: Asn = Asn(9002);
    pub const ARELION: Asn = Asn(1299);
    pub const GTT: Asn = Asn(3257);
    pub const LUMEN: Asn = Asn(3356);
    /// The degrading foreign ingress of Figure 6.
    pub const AS6663: Asn = Asn(6663);
    pub const VODAFONE_CARRIER: Asn = Asn(1273);
}

/// The full AS catalogue for one topology instance.
#[derive(Debug, Clone, Default)]
pub struct AsCatalog {
    entries: Vec<AsInfo>,
}

impl AsCatalog {
    /// Creates an empty catalogue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an AS.
    ///
    /// # Panics
    /// Panics if the ASN is already present.
    pub fn add(&mut self, info: AsInfo) {
        assert!(self.get(info.asn).is_none(), "duplicate {}", info.asn);
        self.entries.push(info);
    }

    /// Looks an AS up by number.
    pub fn get(&self, asn: Asn) -> Option<&AsInfo> {
        self.entries.iter().find(|e| e.asn == asn)
    }

    /// All entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &AsInfo> {
        self.entries.iter()
    }

    /// All ASes of one kind.
    pub fn of_kind(&self, kind: AsKind) -> impl Iterator<Item = &AsInfo> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    /// Number of catalogued ASes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether an AS is Ukrainian (eyeball or transit).
    pub fn is_ukrainian(&self, asn: Asn) -> bool {
        self.get(asn).map(|e| e.country == "UA").unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(asn: u32, kind: AsKind) -> AsInfo {
        AsInfo {
            asn: Asn(asn),
            name: format!("AS{asn}"),
            country: if matches!(kind, AsKind::UkrEyeball | AsKind::UkrTransit) { "UA" } else { "US" },
            kind,
            footprint: vec![],
        }
    }

    #[test]
    fn add_and_lookup() {
        let mut c = AsCatalog::new();
        c.add(entry(15895, AsKind::UkrEyeball));
        c.add(entry(6939, AsKind::Border));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(Asn(15895)).unwrap().kind, AsKind::UkrEyeball);
        assert!(c.get(Asn(999)).is_none());
        assert!(c.is_ukrainian(Asn(15895)));
        assert!(!c.is_ukrainian(Asn(6939)));
        assert!(!c.is_ukrainian(Asn(999)));
    }

    #[test]
    #[should_panic(expected = "duplicate AS15895")]
    fn duplicate_panics() {
        let mut c = AsCatalog::new();
        c.add(entry(15895, AsKind::UkrEyeball));
        c.add(entry(15895, AsKind::UkrTransit));
    }

    #[test]
    fn kind_filter() {
        let mut c = AsCatalog::new();
        c.add(entry(1, AsKind::Border));
        c.add(entry(2, AsKind::UkrEyeball));
        c.add(entry(3, AsKind::Border));
        assert_eq!(c.of_kind(AsKind::Border).count(), 2);
        assert_eq!(c.of_kind(AsKind::MLabHost).count(), 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(well_known::HURRICANE_ELECTRIC.to_string(), "AS6939");
    }
}
