// bbc-lint-fixture: narrowing
// L2: bare narrowing casts in a row-width-critical file must fire.

pub fn pack_index(x: usize) -> u32 {
    x as u32 //~ ERROR narrowing-cast
}

pub fn pack_len(x: u64) -> u16 {
    x as u16 //~ ERROR narrowing-cast
}

pub fn pack_byte(x: u64) -> u8 {
    x as u8 //~ ERROR narrowing-cast
}

pub fn affected_member(v: usize, members: &mut Vec<u32>) {
    members.push(v as u32); //~ ERROR narrowing-cast
}

pub fn row_entry(d: u64) -> i16 {
    d as i16 //~ ERROR narrowing-cast
}

pub fn widening_is_fine(x: u32) -> u64 {
    x as u64
}
