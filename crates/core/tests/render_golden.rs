//! Pin the rendered text of the two generated dashboards `monitor_e2e`
//! refreshes — `subtree(socket0)` and `level(thread)` of the `skx` KB,
//! 32 panels / 2,112 targets — after one seeded replicated monitoring
//! window, byte for byte: panel order, target order, sparklines, `last=`
//! and `n=`, "(no measurement)" for the HW-counter panels nothing sampled.

use pmove_core::dashboard::{gen, render};
use pmove_core::PMoveDaemon;

const GOLDEN: &str = include_str!("golden/render_skx.txt");

#[test]
fn rendered_skx_dashboards_match_golden() {
    let mut d = PMoveDaemon::for_preset_replicated("skx", 7).unwrap();
    let out = d.monitor_replicated(60.0, 8.0, None).unwrap();
    let socket0 = d.kb.by_name("socket0").unwrap().id.clone();
    let subtree = gen::subtree_dashboard(&d.kb, &socket0).unwrap();
    let level = gen::level_dashboard(&d.kb, "thread").unwrap();
    assert_eq!(subtree.target_count() + level.target_count(), 2112);

    let db = d.repl.as_ref().unwrap().replica(out.primary);
    let mut rendered = render::render_dashboard(db, &subtree, None);
    rendered.push_str(&render::render_dashboard(db, &level, None));
    // A second refresh reads the result cache; it must print the same.
    let again =
        render::render_dashboard(db, &subtree, None) + &render::render_dashboard(db, &level, None);
    assert_eq!(rendered, again, "a warm refresh rendered differently");
    assert!(
        rendered == GOLDEN,
        "rendered dashboards drifted from crates/core/tests/golden/render_skx.txt"
    );
}
