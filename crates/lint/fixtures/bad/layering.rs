// bbc-lint-fixture: reference
// L3 (reference half): the frozen spec may not import the engine.

use crate::engine::DistanceEngine; //~ ERROR layering
use crate::{eval, engine}; //~ ERROR layering

pub fn reach_in() -> u64 {
    let _cache = crate::engine::EngineStats::default(); //~ ERROR layering
    0
}
