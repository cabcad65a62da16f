//! The 27 regions of Ukraine as reported in the paper's Table 4.
//!
//! Each region carries the paper's own prewar and wartime measurements
//! (mean throughput, min RTT, loss rate, test count). These serve two
//! purposes in the reproduction: they *calibrate* the simulator's per-region
//! baselines, and they are the reference column in `EXPERIMENTS.md`'s
//! paper-vs-measured comparison. Region naming follows the paper's spelling
//! ("Kiev City", "L'viv", …).

use crate::coords::LatLon;

/// Military-front classification from the paper's §2 narrative and Figure 1:
/// the Northern, Eastern and Southern fronts saw direct assault; the West
/// was largely spared; Crimea and Sevastopol were already occupied in 2014.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Front {
    /// Kyiv axis: assaulted from Belarus/Russia, regained by April 3.
    North,
    /// Kharkiv/Donbas axis: under continuous assault through the window.
    East,
    /// Kherson/Zaporizhzhia/Mykolaiv axis: partially occupied.
    South,
    /// Central oblasts: sporadic strikes, no ground assault.
    Center,
    /// Western oblasts: largely spared during the first 54 days.
    West,
    /// Crimea and Sevastopol: occupied since 2014, little change.
    Occupied,
}

/// One of the 27 administrative regions in Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Oblast {
    KyivCity,
    Dnipropetrovsk,
    Lviv,
    Odessa,
    Kharkiv,
    Donetsk,
    Zaporizhzhya,
    Vinnytsya,
    Mykolayiv,
    Transcarpathia,
    Chernihiv,
    KyivOblast,
    Kherson,
    Cherkasy,
    Rivne,
    Poltava,
    IvanoFrankivsk,
    Ternopil,
    Kirovohrad,
    Luhansk,
    Volyn,
    Zhytomyr,
    Chernivtsi,
    Khmelnytskyy,
    Sumy,
    Crimea,
    Sevastopol,
}

/// The paper's reported per-period values for one region (Table 4 row half).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperCell {
    /// Mean download throughput in Mbps.
    pub tput_mbps: f64,
    /// Minimum RTT in milliseconds.
    pub min_rtt_ms: f64,
    /// Loss rate in percent (Table 4 prints e.g. "1.30%").
    pub loss_pct: f64,
    /// Number of NDT download tests in the 54-day period.
    pub tests: u32,
}

/// Static description of a region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OblastInfo {
    pub oblast: Oblast,
    /// The paper's spelling from Table 4.
    pub name: &'static str,
    /// Administrative center (or proxy centroid for Kyiv Oblast).
    pub center: LatLon,
    pub front: Front,
    /// Paper Table 4, prewar half (2022-01-01 .. 02-23).
    pub paper_prewar: PaperCell,
    /// Paper Table 4, wartime half (2022-02-24 .. 04-18).
    pub paper_wartime: PaperCell,
}

macro_rules! cell {
    ($tput:expr, $rtt:expr, $loss:expr, $n:expr) => {
        PaperCell { tput_mbps: $tput, min_rtt_ms: $rtt, loss_pct: $loss, tests: $n }
    };
}

macro_rules! region {
    ($ob:ident, $name:expr, $lat:expr, $lon:expr, $front:ident,
     pre($pt:expr, $pr:expr, $pl:expr, $pn:expr),
     war($wt:expr, $wr:expr, $wl:expr, $wn:expr)) => {
        OblastInfo {
            oblast: Oblast::$ob,
            name: $name,
            center: LatLon { lat: $lat, lon: $lon },
            front: Front::$front,
            paper_prewar: cell!($pt, $pr, $pl, $pn),
            paper_wartime: cell!($wt, $wr, $wl, $wn),
        }
    };
}

/// All 27 regions in the paper's Table 4 order.
pub static OBLASTS: [OblastInfo; 27] = [
    region!(KyivCity, "Kiev City", 50.4501, 30.5234, North,
        pre(61.71, 11.69, 1.30, 11216), war(50.61, 25.99, 2.93, 10023)),
    region!(Dnipropetrovsk, "Dnipropetrovs'k", 48.4647, 35.0462, Center,
        pre(35.18, 13.18, 1.82, 3024), war(30.14, 17.93, 2.96, 3483)),
    region!(Lviv, "L'viv", 49.8397, 24.0297, West,
        pre(34.70, 6.53, 1.62, 1881), war(37.16, 13.44, 3.27, 2964)),
    region!(Odessa, "Odessa", 46.4825, 30.7233, South,
        pre(40.31, 9.07, 1.99, 2210), war(39.43, 11.31, 2.41, 1969)),
    region!(Kharkiv, "Kharkiv", 49.9935, 36.2304, East,
        pre(42.72, 21.42, 2.22, 2102), war(42.51, 26.93, 3.41, 1692)),
    region!(Donetsk, "Donets'k", 48.0159, 37.8028, East,
        pre(26.87, 22.22, 2.09, 1749), war(20.78, 16.50, 4.02, 1318)),
    region!(Zaporizhzhya, "Zaporizhzhya", 47.8388, 35.1396, South,
        pre(24.71, 4.16, 2.00, 1046), war(19.87, 14.94, 12.09, 1552)),
    region!(Vinnytsya, "Vinnytsya", 49.2331, 28.4682, Center,
        pre(34.56, 6.73, 1.39, 894), war(32.82, 12.35, 2.42, 1293)),
    region!(Mykolayiv, "Mykolayiv", 46.9750, 31.9946, South,
        pre(55.30, 28.20, 1.50, 1031), war(49.50, 32.84, 2.31, 1127)),
    region!(Transcarpathia, "Transcarpathia", 48.6208, 22.2879, West,
        pre(27.36, 18.43, 4.77, 721), war(19.53, 20.96, 5.58, 1040)),
    region!(Chernihiv, "Chernihiv", 51.4982, 31.2893, North,
        pre(71.33, 14.20, 2.45, 1298), war(18.55, 9.90, 4.71, 366)),
    region!(KyivOblast, "Kiev", 49.7950, 30.1310, North,
        pre(32.76, 4.65, 1.35, 887), war(34.92, 17.40, 5.38, 728)),
    region!(Kherson, "Kherson", 46.6354, 32.6169, South,
        pre(24.59, 5.08, 2.07, 614), war(16.37, 18.94, 8.57, 986)),
    region!(Cherkasy, "Cherkasy", 49.4444, 32.0598, Center,
        pre(48.00, 3.94, 0.85, 570), war(46.33, 12.37, 2.68, 831)),
    region!(Rivne, "Rivne", 50.6199, 26.2516, West,
        pre(34.81, 3.30, 2.14, 612), war(28.21, 11.69, 3.69, 766)),
    region!(Poltava, "Poltava", 49.5883, 34.5514, Center,
        pre(31.12, 5.04, 1.47, 537), war(38.56, 17.60, 3.77, 824)),
    region!(IvanoFrankivsk, "Ivano-Frankivs'k", 48.9226, 24.7111, West,
        pre(22.16, 6.58, 2.19, 535), war(27.34, 15.28, 3.26, 758)),
    region!(Ternopil, "Ternopil'", 49.5535, 25.5948, West,
        pre(37.16, 11.50, 1.46, 531), war(43.95, 8.78, 2.46, 594)),
    region!(Kirovohrad, "Kirovohrad", 48.5079, 32.2623, Center,
        pre(18.64, 3.30, 1.87, 437), war(22.19, 11.22, 2.28, 642)),
    region!(Luhansk, "Luhans'k", 48.5740, 39.3078, East,
        pre(13.87, 10.30, 2.92, 581), war(14.66, 19.63, 5.88, 470)),
    region!(Volyn, "Volyn", 50.7472, 25.3254, West,
        pre(36.62, 4.49, 1.49, 414), war(26.84, 13.80, 2.67, 631)),
    region!(Zhytomyr, "Zhytomyr", 50.2547, 28.6587, North,
        pre(25.65, 8.25, 2.10, 459), war(28.38, 21.82, 5.31, 555)),
    region!(Chernivtsi, "Chernivtsi", 48.2921, 25.9358, West,
        pre(22.24, 4.71, 2.01, 462), war(38.00, 12.16, 2.22, 513)),
    region!(Khmelnytskyy, "Khmel'nyts'kyy", 49.4230, 26.9871, West,
        pre(21.67, 11.15, 2.06, 227), war(28.86, 14.49, 4.94, 688)),
    region!(Sumy, "Sumy", 50.9077, 34.7981, North,
        pre(22.61, 7.47, 1.87, 329), war(20.18, 20.83, 8.52, 552)),
    region!(Crimea, "Crimea", 44.9521, 34.1024, Occupied,
        pre(43.41, 65.76, 2.80, 348), war(34.60, 57.15, 4.45, 338)),
    region!(Sevastopol, "Sevastopol'", 44.6166, 33.5254, Occupied,
        pre(21.52, 47.53, 3.48, 92), war(29.80, 31.01, 4.08, 199)),
];

impl Oblast {
    /// All regions in Table 4 order.
    pub fn all() -> impl Iterator<Item = Oblast> {
        OBLASTS.iter().map(|o| o.oblast)
    }

    /// Static info for this region.
    pub fn info(&self) -> &'static OblastInfo {
        OBLASTS.iter().find(|o| o.oblast == *self).expect("every oblast has an entry")
    }

    /// The paper's Table 4 spelling.
    pub fn name(&self) -> &'static str {
        self.info().name
    }

    /// Front classification (§2 / Figure 1 narrative).
    pub fn front(&self) -> Front {
        self.info().front
    }

    /// Administrative-center coordinates.
    pub fn center(&self) -> LatLon {
        self.info().center
    }

    /// Prewar test count from Table 4 — used as the region's test-volume
    /// weight when spawning simulated clients.
    pub fn prewar_weight(&self) -> f64 {
        self.info().paper_prewar.tests as f64
    }

    /// Looks a region up by the paper's spelling.
    pub fn by_name(name: &str) -> Option<Oblast> {
        OBLASTS.iter().find(|o| o.name == name).map(|o| o.oblast)
    }
}

impl std::fmt::Display for Oblast {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn twenty_seven_unique_regions() {
        assert_eq!(OBLASTS.len(), 27);
        let names: HashSet<_> = OBLASTS.iter().map(|o| o.name).collect();
        assert_eq!(names.len(), 27);
        let ids: HashSet<_> = OBLASTS.iter().map(|o| o.oblast).collect();
        assert_eq!(ids.len(), 27);
    }

    #[test]
    fn info_roundtrip() {
        for ob in Oblast::all() {
            assert_eq!(ob.info().oblast, ob);
            assert_eq!(Oblast::by_name(ob.name()), Some(ob));
        }
        assert_eq!(Oblast::by_name("Atlantis"), None);
    }

    #[test]
    fn paper_table4_totals() {
        // Table 4's prewar counts sum close to the national prewar count in
        // Table 1 (35,488); the delta is tests without region labels.
        let prewar: u32 = OBLASTS.iter().map(|o| o.paper_prewar.tests).sum();
        assert!((30_000..40_000).contains(&prewar), "prewar total = {prewar}");
        let wartime: u32 = OBLASTS.iter().map(|o| o.paper_wartime.tests).sum();
        assert!((30_000..42_000).contains(&wartime), "wartime total = {wartime}");
    }

    #[test]
    fn fronts_match_paper_narrative() {
        assert_eq!(Oblast::KyivCity.front(), Front::North);
        assert_eq!(Oblast::Kharkiv.front(), Front::East);
        assert_eq!(Oblast::Donetsk.front(), Front::East);
        assert_eq!(Oblast::Kherson.front(), Front::South);
        assert_eq!(Oblast::Lviv.front(), Front::West);
        assert_eq!(Oblast::Crimea.front(), Front::Occupied);
    }

    #[test]
    fn coordinates_are_inside_ukraine_bounding_box() {
        for o in &OBLASTS {
            assert!((44.0..53.0).contains(&o.center.lat), "{} lat {}", o.name, o.center.lat);
            assert!((22.0..40.5).contains(&o.center.lon), "{} lon {}", o.name, o.center.lon);
        }
    }

    #[test]
    fn key_city_regions_degraded_in_paper_data() {
        // Sanity on the transcription: the paper's own numbers show loss
        // rising in Kyiv City and Kharkiv.
        let kyiv = Oblast::KyivCity.info();
        assert!(kyiv.paper_wartime.loss_pct > kyiv.paper_prewar.loss_pct);
        let kharkiv = Oblast::Kharkiv.info();
        assert!(kharkiv.paper_wartime.loss_pct > kharkiv.paper_prewar.loss_pct);
    }
}
