//! Packed per-reviewer attribute codes — the dense-columnar representation
//! the cube layer's hot loop runs on.
//!
//! The reviewer schema is tiny and fully enumerable (7 ages × 2 genders ×
//! 21 occupations × 51 states), so a reviewer's whole demographic profile
//! fits in 15 bits of a `u16`:
//!
//! ```text
//! bit 14 … 9   8 … 4        3       2 … 0
//!     state    occupation   gender  age
//!     (6 b)    (5 b)        (1 b)   (3 b)
//! ```
//!
//! The dataset precomputes one such code per *rating* (aligned with each
//! item's ratings — see [`crate::RatingChunk::user_codes`]), so cube
//! materialization never chases `rating → user → attr_value` pointers:
//! each cuboid maps a packed code to a dense cell id with shift/mask
//! field extraction and mixed-radix multipliers, no hashing involved.

use crate::attrs::UserAttr;
use crate::user::User;

/// A reviewer's four attribute value indexes packed into 15 bits.
///
/// ```
/// use maprat_data::packed::PackedUserCode;
/// use maprat_data::{ids::UserId, zipcode::Zip};
/// use maprat_data::{AgeGroup, Gender, Occupation, UsState, User, UserAttr};
/// let user = User {
///     id: UserId(0),
///     age: AgeGroup::From25To34,
///     gender: Gender::Female,
///     occupation: Occupation::Programmer,
///     zip: Zip::new(94103),
///     state: UsState::CA,
///     city: 0,
/// };
/// let code = PackedUserCode::pack(&user);
/// for attr in UserAttr::ALL {
///     assert_eq!(
///         usize::from(code.field(attr)),
///         user.attr_value(attr).value_index()
///     );
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedUserCode(u16);

impl PackedUserCode {
    /// Number of significant bits in a code (bit 15 is always zero).
    pub const BITS: u32 = 15;

    /// The bit offset of an attribute's field inside the code.
    #[inline]
    pub const fn shift(attr: UserAttr) -> u32 {
        match attr {
            UserAttr::Age => 0,
            UserAttr::Gender => 3,
            UserAttr::Occupation => 4,
            UserAttr::State => 9,
        }
    }

    /// The (unshifted) bit mask of an attribute's field. Each field is
    /// wide enough for the attribute's cardinality (7, 2, 21, 51).
    #[inline]
    pub const fn mask(attr: UserAttr) -> u16 {
        match attr {
            UserAttr::Age => 0b111,
            UserAttr::Gender => 0b1,
            UserAttr::Occupation => 0b1_1111,
            UserAttr::State => 0b11_1111,
        }
    }

    /// Packs a reviewer's profile.
    #[inline]
    pub fn pack(user: &User) -> PackedUserCode {
        PackedUserCode(
            (user.age as u16) << Self::shift(UserAttr::Age)
                | (user.gender as u16) << Self::shift(UserAttr::Gender)
                | (user.occupation as u16) << Self::shift(UserAttr::Occupation)
                | (user.state as u16) << Self::shift(UserAttr::State),
        )
    }

    /// The raw packed bits (what a rating chunk's code column stores).
    #[inline]
    pub fn get(self) -> u16 {
        self.0
    }

    /// Reconstructs a code from raw column bits.
    #[inline]
    pub fn from_raw(raw: u16) -> PackedUserCode {
        PackedUserCode(raw)
    }

    /// Extracts one attribute's value index.
    #[inline]
    pub fn field(self, attr: UserAttr) -> u16 {
        (self.0 >> Self::shift(attr)) & Self::mask(attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AgeGroup, Gender, Occupation, UsState};
    use crate::ids::UserId;
    use crate::zipcode::Zip;

    fn user(age: usize, gender: usize, occ: usize, state: usize) -> User {
        User {
            id: UserId(0),
            age: AgeGroup::from_index(age).unwrap(),
            gender: Gender::from_index(gender).unwrap(),
            occupation: Occupation::from_index(occ).unwrap(),
            zip: Zip::new(0),
            state: UsState::from_index(state).unwrap(),
            city: 0,
        }
    }

    #[test]
    fn fields_round_trip_over_the_full_domain_product() {
        for age in 0..UserAttr::Age.cardinality() {
            for gender in 0..UserAttr::Gender.cardinality() {
                for occ in 0..UserAttr::Occupation.cardinality() {
                    for state in 0..UserAttr::State.cardinality() {
                        let u = user(age, gender, occ, state);
                        let code = PackedUserCode::pack(&u);
                        for attr in UserAttr::ALL {
                            assert_eq!(
                                usize::from(code.field(attr)),
                                u.attr_value(attr).value_index()
                            );
                        }
                        assert!(u32::from(code.get()).leading_zeros() >= 32 - PackedUserCode::BITS);
                    }
                }
            }
        }
    }

    #[test]
    fn fields_do_not_overlap_and_cover_cardinalities() {
        let mut seen: u16 = 0;
        for attr in UserAttr::ALL {
            let field = PackedUserCode::mask(attr) << PackedUserCode::shift(attr);
            assert_eq!(seen & field, 0, "{attr} overlaps another field");
            seen |= field;
            assert!(
                usize::from(PackedUserCode::mask(attr)) + 1 >= attr.cardinality(),
                "{attr} field too narrow"
            );
        }
        assert_eq!(u32::from(seen).count_ones(), PackedUserCode::BITS);
    }

    #[test]
    fn distinct_profiles_get_distinct_codes() {
        let a = PackedUserCode::pack(&user(1, 0, 3, 7));
        let b = PackedUserCode::pack(&user(1, 0, 3, 8));
        let c = PackedUserCode::pack(&user(1, 1, 3, 7));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, PackedUserCode::from_raw(a.get()));
    }
}
