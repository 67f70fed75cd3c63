#!/usr/bin/env bash
# Build file of the benchmark: compiles the program (src/main/scala) together
# with the benchmark sources (perfbench/src) into one class directory, using
# the Scala compiler of the Spark distribution in $SPARK_HOME.
#
# Usage: bash perfbench/build.sh <output-dir>
set -euo pipefail

out=${1:?usage: build.sh <output-dir>}
root=$(cd "$(dirname "$0")/.." && pwd)
jars=${SPARK_HOME:?set SPARK_HOME to the Spark installation}/jars

if [ ! -d "$root/src/main/scala/repro" ]; then
  echo "build.sh: program sources not found at $root/src/main/scala" >&2
  exit 2
fi

scala_cp=$(ls "$jars"/scala-compiler-2.13.*.jar "$jars"/scala-library-2.13.*.jar \
              "$jars"/scala-reflect-2.13.*.jar | paste -sd: -)
spark_cp=$(ls "$jars"/*.jar | paste -sd: -)

tmp="$out.partial"
rm -rf "$tmp"
mkdir -p "$tmp"
find "$root/src/main/scala" "$root/perfbench/src" -name '*.scala' | sort > "$tmp.sources"
java -Xss8m -Xmx2g -XX:-UsePerfData -cp "$scala_cp" scala.tools.nsc.Main \
  -nowarn -d "$tmp" -classpath "$spark_cp" @"$tmp.sources"
rm -f "$tmp.sources"
rm -rf "$out"
mv "$tmp" "$out"
