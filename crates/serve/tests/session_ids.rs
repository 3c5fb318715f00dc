//! Session ids label the process-global `serve.session.*` metric family
//! cells, so they must be unique across every `SessionManager` in the
//! process — a listener and an in-process reference replay, or two tests
//! running side by side. Its own test binary, so nothing else in the
//! process toggles metric recording while it runs.

use subset3d_serve::{ServeConfig, SessionId, SessionManager};
use subset3d_trace::gen::GameProfile;

#[test]
fn concurrent_managers_record_into_their_own_session_cells() {
    subset3d_obs::set_enabled(true);
    let w = GameProfile::racing("ids")
        .frames(6)
        .draws_per_frame(20)
        .build(3)
        .generate();
    let (first, second) = (SessionManager::new(), SessionManager::new());
    let a = first.open(ServeConfig::default(), &w).unwrap();
    let b = second.open(ServeConfig::default(), &w).unwrap();
    assert_ne!(a, b, "two managers handed out the same session id");

    // Two chunks into `a`, three into `b`, concurrently.
    std::thread::scope(|s| {
        s.spawn(|| {
            for chunk in w.frames().chunks(3) {
                first.ingest(a, chunk).unwrap();
            }
        });
        s.spawn(|| {
            for chunk in w.frames().chunks(2) {
                second.ingest(b, chunk).unwrap();
            }
        });
    });

    let snapshot = subset3d_obs::snapshot();
    let ingests = |id: SessionId| -> u64 {
        snapshot
            .histogram_families
            .get("serve.session.ingest_ns")
            .map_or(0, |family| {
                family
                    .cells
                    .iter()
                    .filter(|c| c.label == id.to_string())
                    .map(|c| c.value.count)
                    .sum()
            })
    };
    assert_eq!(ingests(a), 2, "{a} counted another session's ingests");
    assert_eq!(ingests(b), 3, "{b} counted another session's ingests");
}
