//! MovieLens-format export.
//!
//! Writes a [`Dataset`] back to the `::`-separated on-disk format the
//! [`crate::loader`] reads, including the optional `people.dat` join file.
//! Round-tripping lets users materialize the synthetic dataset for other
//! tools (or ship a subsample), and gives the test-suite a strong
//! loader/writer consistency check.

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::item::Role;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Serializes `users.dat` content (1-based file ids, dense order).
pub fn users_dat(dataset: &Dataset) -> String {
    let mut out = String::with_capacity(dataset.users().len() * 24);
    for user in dataset.users() {
        out.push_str(&format!(
            "{}::{}::{}::{}::{}\n",
            user.id.0 + 1,
            user.gender.letter(),
            user.age.movielens_code(),
            user.occupation.movielens_code(),
            user.zip
        ));
    }
    out
}

/// Serializes `movies.dat` content.
pub fn movies_dat(dataset: &Dataset) -> String {
    let mut out = String::with_capacity(dataset.items().len() * 48);
    for item in dataset.items() {
        let genres = if item.genres.is_empty() {
            // The loader tolerates unknown genre tokens; keep the column
            // non-empty like MovieLens does.
            "Drama".to_string()
        } else {
            item.genres.to_string()
        };
        out.push_str(&format!(
            "{}::{}::{}\n",
            item.id.0 + 1,
            item.display_title(),
            genres
        ));
    }
    out
}

/// Serializes `ratings.dat` content.
pub fn ratings_dat(dataset: &Dataset) -> String {
    let mut out = String::with_capacity(dataset.num_ratings() * 24);
    for rating in dataset.ratings() {
        out.push_str(&format!(
            "{}::{}::{}::{}\n",
            rating.user.0 + 1,
            rating.item.0 + 1,
            rating.score,
            rating.ts.secs()
        ));
    }
    out
}

/// Serializes the optional `people.dat` join (`MovieID::role::Name`).
pub fn people_dat(dataset: &Dataset) -> String {
    let mut out = String::new();
    for item in dataset.items() {
        for (role, list) in [
            (Role::Actor, &item.actors),
            (Role::Director, &item.directors),
        ] {
            for &pid in list {
                out.push_str(&format!(
                    "{}::{}::{}\n",
                    item.id.0 + 1,
                    role,
                    dataset.person(pid).name
                ));
            }
        }
    }
    out
}

/// Writes the four files into `dir` (created if missing).
pub fn write_movielens_dir(dataset: &Dataset, dir: impl AsRef<Path>) -> Result<(), DataError> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    for (name, body) in [
        ("users.dat", users_dat(dataset)),
        ("movies.dat", movies_dat(dataset)),
        ("ratings.dat", ratings_dat(dataset)),
        ("people.dat", people_dat(dataset)),
    ] {
        let file = fs::File::create(dir.join(name))?;
        let mut writer = BufWriter::new(file);
        writer.write_all(body.as_bytes())?;
        writer.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::load_movielens_dir;
    use crate::synth::{generate, SynthConfig};

    #[test]
    fn round_trip_through_disk_format() {
        let original = generate(&SynthConfig::tiny(301)).unwrap();
        let dir = std::env::temp_dir().join(format!("maprat-writer-{}", std::process::id()));
        write_movielens_dir(&original, &dir).unwrap();
        let reloaded = load_movielens_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(reloaded.users().len(), original.users().len());
        assert_eq!(reloaded.items().len(), original.items().len());
        assert_eq!(reloaded.num_ratings(), original.num_ratings());

        // Demographics survive exactly.
        for (a, b) in original.users().iter().zip(reloaded.users()) {
            assert_eq!(a.age, b.age);
            assert_eq!(a.gender, b.gender);
            assert_eq!(a.occupation, b.occupation);
            assert_eq!(a.zip, b.zip);
            assert_eq!(a.state, b.state);
        }
        // Ratings survive as a multiset (both sides sort identically).
        for (a, b) in original.ratings().zip(reloaded.ratings()) {
            assert_eq!(a, b);
        }
        // The people join survives.
        let toy_a = original.find_title("Toy Story").unwrap();
        let toy_b = reloaded.find_title("Toy Story").unwrap();
        assert_eq!(
            original.item(toy_a).actors.len(),
            reloaded.item(toy_b).actors.len()
        );
        let hanks = reloaded.find_person("Tom Hanks").expect("join preserved");
        assert!(reloaded.item(toy_b).has_person(hanks, Role::Actor));
    }

    #[test]
    fn file_bodies_use_movielens_syntax() {
        let d = generate(&SynthConfig::tiny(302)).unwrap();
        let users = users_dat(&d);
        let first = users.lines().next().unwrap();
        assert_eq!(first.split("::").count(), 5);
        assert!(first.starts_with("1::"), "1-based ids");
        let movies = movies_dat(&d);
        assert!(movies.lines().all(|l| l.split("::").count() == 3));
        let ratings = ratings_dat(&d);
        assert!(ratings.lines().all(|l| l.split("::").count() == 4));
    }

    #[test]
    fn titles_carry_year_suffix() {
        let d = generate(&SynthConfig::tiny(303)).unwrap();
        let movies = movies_dat(&d);
        assert!(movies.contains("Toy Story (1995)"));
    }
}
