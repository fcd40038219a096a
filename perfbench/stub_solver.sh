# Stand-in external solver: reads the HES file it is given, decides nothing.
while IFS= read -r line; do :; done < "$1"
echo unknown
