// naming-type: type names shall be UpperCamelCase (ISO 26262-6 Table 1
// row 8; the Google C++ style Apollo adopts). Records and enums are
// warnings, aliases infos; a C-style `*_t` alias is conventional.

// Non-compliant: a record, a union, an enum and an alias named
// otherwise, at file and namespace scope.
struct object_tracker { int id; };  // expect: naming-type
union raw_word { int i; float f; };  // expect: naming-type
enum class drive_mode { kIdle, kRun };  // expect: naming-type
typedef unsigned int frame_count;  // expect: naming-type
namespace perception {
class lidar_frame { int points; };  // expect: naming-type
enum sensor_kind { kLidar };  // expect: naming-type
}

// Compliant: UpperCamelCase names, C-style `_t` aliases and anonymous
// types.
struct ObjectTracker { int id; };
enum class DriveMode { kIdle, kRun };
typedef unsigned int FrameCount;
typedef unsigned int frame_id_t;
namespace planning {
class RoutePlanner { int lanes; };
}
