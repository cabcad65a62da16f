//! Dated events the paper cites, as machine-readable structs.

use crate::calendar::{dates, Date};
use ndt_topology::Asn;

/// Category of a narrative event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Start of the invasion.
    Invasion,
    /// A city besieged/encircled.
    Siege,
    /// Mass shelling of a city.
    Shelling,
    /// A network-infrastructure outage.
    Outage,
    /// Territory regained by Ukraine.
    Withdrawal,
}

/// A narrative event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub date: Date,
    pub kind: EventKind,
    pub description: &'static str,
}

/// The §2/§4 event timeline.
pub fn key_events() -> Vec<Event> {
    vec![
        Event { date: dates::INVASION, kind: EventKind::Invasion, description: "Russia begins large-scale invasion of Ukraine" },
        Event { date: dates::MARIUPOL_ENCIRCLED, kind: EventKind::Siege, description: "Russian forces surround Mariupol" },
        Event { date: dates::NATIONAL_OUTAGES, kind: EventKind::Outage, description: "Ukrtelecom down nationally 40 min; Triolan down 12+ h after cyberattack" },
        Event { date: dates::KHARKIV_SHELLING, kind: EventKind::Shelling, description: "Kharkiv struck 65 times; 600+ residential buildings destroyed" },
        Event { date: dates::KYIV_REGAINED, kind: EventKind::Withdrawal, description: "Ukraine regains Kyiv axis; Russian withdrawal from the north" },
        Event { date: dates::STUDY_END, kind: EventKind::Shelling, description: "Missile bombardment of Lviv" },
    ]
}

/// A transit-network outage affecting routing availability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageEvent {
    pub day: i64,
    pub asn: Asn,
    /// Fraction of the day the network was unreachable.
    pub down_fraction: f64,
}

/// Outages active on a given day under the historical scenario (the
/// March 10 Ukrtelecom + Triolan events the paper corroborates via Doug
/// Madory's reporting).
pub fn outages_on(day: i64) -> Vec<OutageEvent> {
    outages_for(ndt_scenario::Scenario::HISTORICAL.spec(), day)
}

/// Outages active on a given day under a scenario spec's outage rules, in
/// rule order.
pub fn outages_for(spec: &ndt_scenario::ScenarioSpec, day: i64) -> Vec<OutageEvent> {
    spec.outages
        .iter()
        .filter(|o| o.day == day)
        .map(|o| OutageEvent { day, asn: Asn(o.asn), down_fraction: o.down_fraction })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndt_topology::asn::well_known as wk;

    #[test]
    fn timeline_is_chronological_and_inside_window() {
        let ev = key_events();
        assert!(ev.windows(2).all(|w| w[0].date <= w[1].date));
        assert_eq!(ev.first().unwrap().date, dates::INVASION);
        assert!(ev.iter().all(|e| e.date.day_index() <= dates::STUDY_END.day_index()));
    }

    #[test]
    fn outages_only_around_march_10() {
        let mar10 = dates::NATIONAL_OUTAGES.day_index();
        assert_eq!(outages_on(mar10).len(), 2);
        assert_eq!(outages_on(mar10 + 1).len(), 1);
        assert!(outages_on(mar10 - 1).is_empty());
        assert!(outages_on(0).is_empty());
    }

    #[test]
    fn ukrtelecom_outage_is_40_minutes() {
        let mar10 = dates::NATIONAL_OUTAGES.day_index();
        let o = outages_on(mar10)
            .into_iter()
            .find(|o| o.asn == wk::UKRTELECOM_TRANSIT)
            .unwrap();
        assert!((o.down_fraction - 40.0 / 1440.0).abs() < 1e-12);
    }
}
