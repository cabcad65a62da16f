//! Figure 1: the military-activity map.
//!
//! The paper's Figure 1 is a Wikimedia map of occupied/contested territory
//! around March 20, 2022 ("approximate date of maximum Russian occupied
//! territory … within the window of analysis"). The reproduction renders
//! the same information from its own conflict model: an ASCII map of
//! Ukraine with one marker per region, shaded by that day's modeled
//! conflict intensity.

use crate::render::text_table;
use ndt_conflict::intensity::intensity;
use ndt_geo::{Front, Oblast};

/// One region's state on the mapped day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapCell {
    pub oblast: Oblast,
    pub front: Front,
    pub intensity: f64,
}

/// The rendered snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityMap {
    /// Day index the snapshot was taken on.
    pub day: i64,
    pub cells: Vec<MapCell>,
}

/// Computes the snapshot for a day (the paper uses 2022-03-20).
pub fn compute(day: i64) -> ActivityMap {
    let cells = Oblast::all()
        .map(|oblast| MapCell { oblast, front: oblast.front(), intensity: intensity(oblast, day) })
        .collect();
    ActivityMap { day, cells }
}

/// Shading glyph for an intensity level.
fn glyph(intensity: f64) -> char {
    match intensity {
        v if v >= 0.9 => '#',
        v if v >= 0.6 => '*',
        v if v >= 0.3 => '+',
        v if v > 0.02 => '.',
        _ => ' ',
    }
}

impl ActivityMap {
    /// Cell by region.
    pub fn cell(&self, oblast: Oblast) -> &MapCell {
        self.cells.iter().find(|c| c.oblast == oblast).expect("all regions mapped")
    }

    /// Legend ordering: intensity descending, ties broken by oblast name.
    ///
    /// The tie-break makes the legend a total order — `sort_by` is stable,
    /// but the *input* order (`Oblast::all()`) is an enum ordering a reader
    /// of the table can't see, and any future reordering of the enum would
    /// silently reshuffle tied rows (every prewar day is one big 0.0 tie).
    pub fn legend_cells(&self) -> Vec<MapCell> {
        let mut cells = self.cells.clone();
        cells.sort_by(|a, b| {
            b.intensity
                .total_cmp(&a.intensity)
                .then_with(|| a.oblast.name().cmp(b.oblast.name()))
        });
        cells
    }

    /// ASCII map: regions plotted by coordinates, shaded by intensity.
    pub fn render(&self) -> String {
        const W: usize = 72;
        const H: usize = 18;
        let (lat_min, lat_max) = (44.0, 52.5);
        let (lon_min, lon_max) = (22.0, 40.5);
        let mut grid = vec![vec![' '; W]; H];
        for c in &self.cells {
            let loc = c.oblast.center();
            let x = ((loc.lon - lon_min) / (lon_max - lon_min) * (W as f64 - 1.0)).round() as usize;
            let y = ((lat_max - loc.lat) / (lat_max - lat_min) * (H as f64 - 1.0)).round() as usize;
            grid[y.min(H - 1)][x.min(W - 1)] = glyph(c.intensity);
        }
        let mut out = String::new();
        out.push_str(&format!(
            "Military activity (modeled), day {} — '#' >=0.9, '*' >=0.6, '+' >=0.3, '.' >0\n",
            self.day
        ));
        for row in grid {
            out.push_str(&row.into_iter().collect::<String>());
            out.push('\n');
        }
        let rows: Vec<Vec<String>> = self
            .legend_cells()
            .iter()
            .take(10)
            .map(|c| {
                vec![
                    c.oblast.name().to_string(),
                    format!("{:?}", c.front),
                    format!("{:.2}", c.intensity),
                    glyph(c.intensity).to_string(),
                ]
            })
            .collect();
        out.push('\n');
        out.push_str(&text_table(&["region", "front", "intensity", "glyph"], &rows));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndt_conflict::calendar::dates;

    #[test]
    fn march_20_matches_the_papers_picture() {
        let map = compute(dates::MAX_OCCUPATION.day_index());
        // "Shaded regions to the North, South, and East are controlled by
        // Russian forces" — the fronts must out-shade the west.
        assert!(map.cell(Oblast::Kharkiv).intensity > 0.9);
        assert!(map.cell(Oblast::KyivCity).intensity > 0.8);
        assert!(map.cell(Oblast::Kherson).intensity > 0.6);
        assert!(map.cell(Oblast::Lviv).intensity < 0.15);
        assert!(map.cell(Oblast::Kharkiv).intensity > map.cell(Oblast::Lviv).intensity);
    }

    #[test]
    fn prewar_map_is_blank() {
        let map = compute(400);
        assert!(map.cells.iter().all(|c| c.intensity == 0.0));
        let r = map.render();
        // No shading glyphs anywhere on the grid rows (line 0 is the
        // legend header, which names the glyphs).
        assert!(r.lines().skip(1).take(18).all(|l| !l.contains('#') && !l.contains('*')));
    }

    #[test]
    fn render_places_east_right_of_west() {
        let map = compute(dates::MAX_OCCUPATION.day_index());
        let r = map.render();
        assert!(r.contains("Kharkiv"));
        // The grid contains heavy shading somewhere.
        assert!(r.lines().take(19).any(|l| l.contains('#')));
    }

    #[test]
    fn legend_ties_are_broken_alphabetically() {
        // Prewar, every intensity is 0.0 — the whole legend is one big
        // tie, so the rows must come out in oblast-name order regardless
        // of the `Oblast::all()` enum ordering.
        let map = compute(400);
        let names: Vec<&str> = map.legend_cells().iter().map(|c| c.oblast.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "tied legend rows are alphabetical");
        // And the wartime legend is still intensity-first: the hottest
        // region leads even though it is not alphabetically first.
        let war = compute(dates::MAX_OCCUPATION.day_index());
        let legend = war.legend_cells();
        assert!(legend.windows(2).all(|w| w[0].intensity >= w[1].intensity));
        // Within any tied run, names ascend.
        assert!(legend.windows(2).all(|w| {
            w[0].intensity != w[1].intensity || w[0].oblast.name() <= w[1].oblast.name()
        }));
    }

    #[test]
    fn withdrawal_lightens_the_north() {
        let before = compute(dates::KYIV_REGAINED.day_index() - 1);
        let after = compute(dates::KYIV_REGAINED.day_index() + 7);
        assert!(after.cell(Oblast::KyivCity).intensity < before.cell(Oblast::KyivCity).intensity);
        // The east stays hot.
        assert!(after.cell(Oblast::Kharkiv).intensity > 0.9);
    }
}
