#ifndef GLD_IO_JSON_H_
#define GLD_IO_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gld {
namespace io {

/**
 * Minimal dependency-free JSON document model for the campaign subsystem:
 * enough of RFC 8259 to serialize run manifests and metrics, nothing more.
 *
 * Design points that matter for reproducibility:
 *  - Objects preserve insertion order (vector of pairs, not a map), so a
 *    document dumps to the same canonical byte string on every platform —
 *    config hashes are computed over that string.
 *  - Integers are kept distinct from doubles (int64 storage) so counters
 *    like `shots` round-trip exactly.
 *  - Doubles print with %.17g which round-trips IEEE-754 binary64 through
 *    decimal; fields that must stay BIT-identical across merge/aggregate
 *    (metric totals) are nevertheless stored as hex bit patterns by the
 *    serialization layer, never as JSON numbers (see serialize.h).
 *
 * Errors (parse errors, type mismatches, missing keys) throw
 * std::runtime_error with a message naming the offending key/position.
 */
class Json {
  public:
    enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

    Json() : type_(Type::kNull) {}

    static Json null() { return Json(); }
    static Json boolean(bool b);
    static Json integer(int64_t v);
    static Json number(double v);
    static Json str(std::string s);
    static Json array();
    static Json object();

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::kNull; }

    // --- Typed accessors; throw std::runtime_error on type mismatch. ---
    bool as_bool() const;
    /** Accepts kInt only (no silent double truncation). */
    int64_t as_int() const;
    /** Accepts kInt or kDouble. */
    double as_double() const;
    const std::string& as_str() const;

    // --- Array interface. ---
    void push(Json v);
    size_t size() const;
    const Json& at(size_t i) const;

    // --- Object interface (ordered). ---
    void set(const std::string& key, Json v);
    bool has(const std::string& key) const;
    /** Throws std::runtime_error naming `key` when absent. */
    const Json& operator[](const std::string& key) const;
    const std::vector<std::pair<std::string, Json>>& items() const;

    /**
     * Serializes the document.  indent < 0 gives the canonical compact
     * form (no whitespace — the hashing input); indent >= 0 pretty-prints.
     */
    std::string dump(int indent = -1) const;

    /** Parses a complete JSON document; trailing garbage is an error. */
    static Json parse(const std::string& text);

  private:
    void dump_to(std::string* out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    int64_t int_ = 0;
    double dbl_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

/**
 * j[key] as an int: an integer outside int's range is refused with
 * std::runtime_error naming the key, never narrowed (2^32 + 5 would
 * otherwise load as 5).
 */
int int_field(const Json& j, const std::string& key);

/**
 * v as a count: a negative integer is refused with std::runtime_error
 * naming `what`, never loaded (-1 would wrap to 2^64 - 1 in an unsigned
 * counter, or merge as a negative shot total).
 */
int64_t count_value(const Json& v, const std::string& what);

/** Reads a whole file; throws std::runtime_error if unreadable. */
std::string read_file(const std::string& path);

/**
 * Writes a whole file via a temporary + rename so a crashed shard never
 * leaves a half-written result for resume to trust.
 */
void write_file_atomic(const std::string& path, const std::string& content);

/**
 * Appends one line (a trailing '\n' is added) to a file, creating it if
 * absent.  A single fwrite of a short line is atomic enough for the
 * progress JSONL heartbeats (one writer per shard; readers tolerate a
 * torn final line by parsing the last COMPLETE line).
 */
void append_line(const std::string& path, const std::string& line);

/** True if `path` names an existing regular file. */
bool file_exists(const std::string& path);

/** Creates a directory (and parents); no-op if it already exists. */
void make_dirs(const std::string& path);

}  // namespace io
}  // namespace gld

#endif  // GLD_IO_JSON_H_
